// Fixture: goroutines in the kernel's ipc/rfs scope must signal
// completion to someone — a WaitGroup, a channel send, or a close.
// The test loads this package under a vkernel/internal/ipc/... import
// path so it falls inside the analyzer's scope.
package a

import "sync"

type pool struct {
	wg   sync.WaitGroup
	jobs chan int
	done chan struct{}
}

// bare signals nobody: Close cannot wait for it.
func bare(p *pool) {
	go func() { // want "goroutine is not accounted"
		for range p.jobs {
		}
	}()
}

// viaWaitGroup is accounted through wg.Done.
func viaWaitGroup(p *pool) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for range p.jobs {
		}
	}()
}

// viaChannel is accounted through the completion send.
func viaChannel(p *pool) {
	go func() {
		for j := range p.jobs {
			_ = j
		}
		p.done <- struct{}{}
	}()
}

// viaClose is accounted through closing the completion channel.
func viaClose(p *pool) {
	go func() {
		for range p.jobs {
		}
		close(p.done)
	}()
}

func worker(p *pool) {
	defer p.wg.Done()
	for range p.jobs {
	}
}

// viaCallee is accounted inside the named worker it spawns.
func viaCallee(p *pool) {
	p.wg.Add(1)
	go worker(p)
}

func silentWorker(p *pool) {
	for range p.jobs {
	}
}

// viaBadCallee spawns a named worker that signals nobody.
func viaBadCallee(p *pool) {
	go silentWorker(p) // want "goroutine is not accounted"
}

// dynamic spawns a function value the analyzer cannot chase.
func dynamic(fn func()) {
	go fn() // want "dynamic function value"
}

type genericPool[T any] struct {
	wg   sync.WaitGroup
	jobs chan T
}

func (p *genericPool[T]) work() {
	defer p.wg.Done()
	for range p.jobs {
	}
}

func (p *genericPool[T]) idle() {
	for range p.jobs {
	}
}

// viaGenericMethod spawns methods of an instantiated generic type: the
// analyzer chases them to the generic declaration.
func viaGenericMethod(p *genericPool[int]) {
	p.wg.Add(1)
	go p.work()
	go p.idle() // want "goroutine is not accounted"
}
