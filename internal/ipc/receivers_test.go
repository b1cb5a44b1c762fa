package ipc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentReceivers: any number of goroutines may Receive on one
// process, the way a file server's workers share its queue. Each message
// goes to exactly one receiver and every exchange is answered, the
// receivers really hold exchanges side by side, Close fails every blocked
// Receive with ErrClosed, and the receive-queue bound still sheds.
func TestConcurrentReceivers(t *testing.T) {
	const receivers = 4

	t.Run("exchanges", func(t *testing.T) {
		const senders, exchanges = 6, 50
		server, client, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{})
		srv := mustAttach(server, "server")

		var (
			mu   sync.Mutex
			got  = make(map[uint32]int) // message id → times received
			held atomic.Int32
			all  = make(chan struct{}) // closed once every receiver holds an exchange
			exit = make(chan error, receivers)
		)
		for r := 0; r < receivers; r++ {
			go func() {
				first := true
				for {
					msg, src, err := srv.Receive()
					if err != nil {
						exit <- err
						return
					}
					mu.Lock()
					got[msg.Word(1)]++
					mu.Unlock()
					if first {
						// Keep the first exchange until every receiver
						// holds one: they must all be handed messages.
						first = false
						if held.Add(1) == receivers {
							close(all)
						}
						select {
						case <-all:
						case <-time.After(5 * time.Second):
						}
					}
					var reply Message
					reply.SetWord(1, msg.Word(1)+1)
					if err := srv.Reply(&reply, src); err != nil {
						exit <- err
						return
					}
				}
			}()
		}

		// Half the senders are remote, half local to the receiving node.
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			n := client
			if s%2 == 1 {
				n = server
			}
			p := mustAttach(n, "sender")
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer n.Detach(p)
				for k := 0; k < exchanges; k++ {
					id := uint32(s<<16 | k)
					var m Message
					m.SetWord(1, id)
					if err := p.Send(&m, srv.Pid(), nil); err != nil {
						t.Errorf("sender %d exchange %d: %v", s, k, err)
						return
					}
					if m.Word(1) != id+1 {
						t.Errorf("sender %d exchange %d: reply word %#x, want %#x", s, k, m.Word(1), id+1)
					}
				}
			}()
		}
		wg.Wait()
		if h := held.Load(); h != receivers {
			t.Errorf("only %d of %d receivers were handed a message", h, receivers)
		}
		mu.Lock()
		if len(got) != senders*exchanges {
			t.Errorf("received %d distinct messages, want %d", len(got), senders*exchanges)
		}
		for id, n := range got {
			if n != 1 {
				t.Errorf("message %#x received %d times", id, n)
			}
		}
		mu.Unlock()

		server.Detach(srv)
		for r := 0; r < receivers; r++ {
			select {
			case err := <-exit:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("receiver ended with %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Close woke %d of %d blocked receivers", r, receivers)
			}
		}
	})

	t.Run("shed", func(t *testing.T) {
		server, client, _ := pairOnMesh(t, FaultConfig{}, NodeConfig{ReceiveQueueDepth: 1})
		srv := mustAttach(server, "server")
		release := make(chan struct{})
		received := make(chan struct{}, receivers+1)
		for r := 0; r < receivers; r++ {
			go func() {
				for {
					_, src, err := srv.Receive()
					if err != nil {
						return
					}
					received <- struct{}{}
					<-release
					var reply Message
					_ = srv.Reply(&reply, src)
				}
			}()
		}
		send := func(errc chan<- error) {
			p := mustAttach(client, "sender")
			go func() {
				defer client.Detach(p)
				var m Message
				errc <- p.Send(&m, srv.Pid(), nil)
			}()
		}

		// The receivers must all be blocked in Receive first: with fewer
		// waiting, the bound (one slot plus one per waiter) sheds a send
		// meant for a receiver that had not started yet.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			srv.mu.Lock()
			waiting := srv.waiters
			srv.mu.Unlock()
			if waiting == receivers {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d receivers blocked in Receive", waiting, receivers)
			}
		}
		// One exchange per receiver, all held; then one more fills the
		// queue's single slot.
		errc := make(chan error, receivers+2)
		for r := 0; r < receivers; r++ {
			send(errc)
		}
		for r := 0; r < receivers; r++ {
			select {
			case <-received:
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of %d receivers were handed a message", r, receivers)
			}
		}
		send(errc)
		waitQueued := time.Now().Add(5 * time.Second)
		for {
			srv.mu.Lock()
			queued := len(srv.queue)
			srv.mu.Unlock()
			if queued == 1 {
				break
			}
			if time.Now().After(waitQueued) {
				t.Fatal("the extra send never queued")
			}
			time.Sleep(time.Millisecond)
		}
		p := mustAttach(client, "shed")
		var m Message
		if err := p.Send(&m, srv.Pid(), nil); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("send past the bound returned %v, want ErrOverloaded", err)
		}
		client.Detach(p)

		// Released, the receivers answer the held exchanges and the queued one.
		close(release)
		for r := 0; r < receivers+1; r++ {
			select {
			case err := <-errc:
				if err != nil {
					t.Errorf("held send returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d held sends answered", r, receivers+1)
			}
		}
	})
}
