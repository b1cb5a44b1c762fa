package rfs

import (
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/obs"
)

// cacheRegistry is the server half of the client-cache consistency
// protocol: per-file registrations of caching clients plus a per-file
// version counter.
//
// Invariant the protocol rests on: a write to a file is acknowledged only
// after every other registered (and unexpired) client has acknowledged an
// OpInvalidate callback for the written blocks — so once a writer sees
// its ack, no client cache anywhere can serve the pre-write bytes. They
// overlap the replicas' apply; replicas serve no reads. The callbacks
// are still best-effort: a client whose callback process is unreachable
// has its registration dropped (never retried forever), and the bounded
// lease plus the version check on re-registration cap how long such a
// client can serve stale bytes from cache (one lease).
//
// Registrations are keyed by callback pid; the owner pid (the client
// process issuing reads and writes) is recorded so a writer is never
// called back about its own write.
//
// Versions and watcher sets are per-(volume, file): the same file id in
// two volumes is two different files, each with its own counter and its
// own invalidation domain — a write in one volume never calls back, or
// version-bumps, the other's clients.
type cacheRegistry struct {
	mu       sync.Mutex
	files    map[volFile]*fileReg
	lease    time.Duration
	timeout  time.Duration    // bound on one write's whole callback fan-out
	now      func() time.Time // test hook (fake clocks for lease expiry)
	nextReap time.Time        // earliest next registry-wide expired-watcher sweep

	node *ipc.Node
	jobs chan invCall // unbuffered: a send reaches only an idle caller
	idle atomic.Int32 // callers waiting on jobs, at most callerIdleMax

	registrations    *obs.Counter
	callbacks        *obs.Counter
	callbackErrs     *obs.Counter
	callbackTimeouts *obs.Counter
	leaseExpiries    *obs.Counter
	abandoned        *obs.Counter // callback exchanges left parked past their deadline
}

// volFile names one file within one volume — the registry's key.
type volFile struct {
	vol  uint32
	file uint32
}

// fileReg is one (volume, file)'s version counter and watcher set. The
// version survives the watchers: it keeps counting writes after every
// registration is dropped, which is what lets a re-registering client
// detect the writes it missed. (That is also why the reap sweep removes
// watchers but never the fileReg itself.)
type fileReg struct {
	version  uint32
	watchers map[ipc.Pid]*watcher // keyed by callback pid
}

type watcher struct {
	cb      ipc.Pid // callback process on the client's node
	owner   ipc.Pid // client process whose writes must NOT call back
	expires time.Time
}

// invCall is one callback exchange, handed to a caller, returned on done.
type invCall struct {
	req  ipc.Message
	w    *watcher
	i    int // w's index in the fan-out's targets
	err  error
	done chan<- invCall
}

const callerIdleMax = 16 // callers kept between writes

// fanout is one write's callbacks, from invalidateStart to wait.
type fanout struct {
	k        volFile
	targets  []*watcher // each nil once answered
	done     chan invCall
	deadline time.Time
}

// newCacheRegistry creates the registry. Each callback exchange runs on
// a caller (a goroutine with a process attached for it, reused across
// writes) and is abandoned — never waited on — past the fan-out
// deadline, so a callback pid that is alive but never in Receive (whose
// Send the reply-pending machinery parks indefinitely) wedges one
// caller, and neither the write path nor Close waits behind it.
func newCacheRegistry(node *ipc.Node, lease, timeout time.Duration, reg *obs.Registry) *cacheRegistry {
	return &cacheRegistry{
		files:   make(map[volFile]*fileReg),
		lease:   lease,
		timeout: timeout,
		now:     time.Now,
		node:    node,
		jobs:    make(chan invCall),

		registrations:    reg.Counter("rfs.cache_registrations"),
		callbacks:        reg.Counter("rfs.cache_callbacks"),
		callbackErrs:     reg.Counter("rfs.cache_callback_errs"),
		callbackTimeouts: reg.Counter("rfs.cache_callback_timeouts"),
		leaseExpiries:    reg.Counter("rfs.cache_lease_expiries"),
		abandoned:        reg.Counter("rfs.cache_callbacks_abandoned"),
	}
}

// send hands cb to an idle caller, or to a new one.
func (r *cacheRegistry) send(cb invCall) {
	select {
	case r.jobs <- cb:
	default:
		p, err := r.node.Attach("inval")
		if err != nil {
			cb.err = err
			cb.done <- cb
			return
		}
		go r.caller(NewClient(p, cb.w.cb), cb)
	}
}

// caller Sends callbacks, cb first, through the client stubs' exchange
// and returns each on its done channel; between them it waits on jobs
// (until close) unless callerIdleMax callers already do. An overload
// shed (the callback process's receive queue was momentarily full) is
// retried under DefaultRetryPolicy, as a stub's would be: shedding is
// the kernel's normal burst behavior and must not cost a healthy client
// its registration; any other error is final.
func (r *cacheRegistry) caller(cl *Client, cb invCall) {
	defer r.node.Detach(cl.p)
	for ok := true; ok; {
		cl.server = cb.w.cb
		cb.err = cl.exchange(&cb.req, nil)
		if status, _ := parseReply(&cb.req); cb.err == nil && status != StatusOK {
			cb.err = ErrBadStatus
		}
		cb.done <- cb
		if r.idle.Add(1) > callerIdleMax {
			r.idle.Add(-1)
			return
		}
		cb, ok = <-r.jobs
		r.idle.Add(-1)
	}
}

// close stops the callers, once the workers that send them jobs exited.
func (r *cacheRegistry) close() { close(r.jobs) }

// register adds (or renews) a registration and returns the file's current
// version. Renewal by the same callback pid refreshes the lease in place.
// Registration is also the registry's reap point: without it, a watcher
// on a file nobody ever writes again would only be removed by a write's
// fan-out — write-time reaping alone lets idle-file registrations pin
// memory indefinitely.
func (r *cacheRegistry) register(vol, file uint32, owner, cb ipc.Pid) (version uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.reapLocked(now)
	k := volFile{vol: vol, file: file}
	fr := r.files[k]
	if fr == nil {
		fr = &fileReg{watchers: make(map[ipc.Pid]*watcher)}
		r.files[k] = fr
	}
	fr.watchers[cb] = &watcher{cb: cb, owner: owner, expires: now.Add(r.lease)}
	r.registrations.Add(1)
	return fr.version
}

// reapLocked sweeps lease-expired watchers registry-wide, at most once
// per lease period (the sweep is O(watchers); amortizing it over a lease
// keeps the registration path cheap). fileReg entries stay — their
// version counters must outlive the watchers. Caller holds r.mu.
func (r *cacheRegistry) reapLocked(now time.Time) {
	if now.Before(r.nextReap) {
		return
	}
	r.nextReap = now.Add(r.lease)
	for _, fr := range r.files {
		for cb, w := range fr.watchers {
			if !now.Before(w.expires) {
				delete(fr.watchers, cb)
				r.leaseExpiries.Add(1)
			}
		}
	}
}

// release drops a registration (client shutdown or cache disable).
func (r *cacheRegistry) release(vol, file uint32, cb ipc.Pid) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fr := r.files[volFile{vol: vol, file: file}]; fr != nil {
		delete(fr.watchers, cb)
	}
}

// dropInstance revokes a registration after a failed or abandoned
// callback — but only the exact watcher instance the fan-out snapshotted.
// A client that re-registered (renewed) while the fan-out ran installed a
// fresh instance; deleting by pid alone would silently revoke that
// renewal even though its register() reply already carried the post-write
// version (the bump precedes the fan-out), i.e. the renewed client is
// fully consistent and must stay registered.
func (r *cacheRegistry) dropInstance(k volFile, w *watcher) {
	r.mu.Lock()
	if fr := r.files[k]; fr != nil && fr.watchers[w.cb] == w {
		delete(fr.watchers, w.cb)
	}
	r.mu.Unlock()
}

// watchers returns the current live registration count (diagnostics).
func (r *cacheRegistry) watcherCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, fr := range r.files {
		n += len(fr.watchers)
	}
	return n
}

// invalidateStart records a write of [first, first+count) by owner: it
// bumps the file's version and Sends every other registered client an
// OpInvalidate callback, for wait to collect. It returns the post-write version and whether
// the file is version-tracked at all — untracked files (no registration
// ever) skip the counter so the registry stays empty for cache-less
// workloads and the write path costs one mutex acquisition.
func (r *cacheRegistry) invalidateStart(vol, file, first, count uint32, owner ipc.Pid, trace uint32) (f fanout, version uint32, tracked bool) {
	f.k = volFile{vol: vol, file: file}
	r.mu.Lock()
	fr := r.files[f.k]
	if fr == nil {
		r.mu.Unlock()
		return f, 0, false
	}
	fr.version++
	version = fr.version
	if len(fr.watchers) > 0 {
		now := r.now()
		f.targets = make([]*watcher, 0, len(fr.watchers))
		for cb, w := range fr.watchers {
			if !now.Before(w.expires) {
				// Lease ran out without a renewal: the client already
				// refuses cache hits for this file, so no callback is owed.
				delete(fr.watchers, cb)
				r.leaseExpiries.Add(1)
				continue
			}
			if w.owner == owner {
				continue
			}
			f.targets = append(f.targets, w)
		}
	}
	r.mu.Unlock()
	if len(f.targets) == 0 {
		return f, version, true
	}
	// done holds every result, so a late exchange never blocks on it.
	req := buildInvalidate(vol, file, first, count, version)
	req.SetTrace(trace)
	f.done = make(chan invCall, len(f.targets))
	f.deadline = time.Now().Add(r.timeout)
	for i, w := range f.targets {
		r.send(invCall{req: req, w: w, i: i, done: f.done})
	}
	r.callbacks.Add(int64(len(f.targets)))
	return f, version, true
}

// wait blocks until each of f's callbacks is acknowledged or fails, or
// the CallbackTimeout deadline that started with the fan-out passes:
// liveness of the write path must not hinge on every callback process
// behaving. A callback that fails has its registration revoked rather
// than retried forever; one that neither acks nor fails by the deadline
// (a pid alive but never in Receive parks the Send in reply-pending
// forever) is abandoned and revoked too. Either way the revoked client's
// staleness is bounded by the lease + version machinery.
func (r *cacheRegistry) wait(f *fanout) {
	var timer *time.Timer
	for pending := len(f.targets); pending > 0; pending-- {
		var cb invCall
		select {
		case cb = <-f.done: // answers already in count, deadline or not
		default:
			if timer == nil {
				timer = time.NewTimer(time.Until(f.deadline))
				defer timer.Stop()
			}
			select {
			case cb = <-f.done:
			case <-timer.C:
				r.callbackTimeouts.Add(1)
				for _, w := range f.targets {
					if w != nil {
						r.abandoned.Add(1)
						r.callbackErrs.Add(1)
						r.dropInstance(f.k, w)
					}
				}
				return
			}
		}
		f.targets[cb.i] = nil
		if cb.err != nil {
			r.callbackErrs.Add(1)
			r.dropInstance(f.k, cb.w)
		}
	}
}
