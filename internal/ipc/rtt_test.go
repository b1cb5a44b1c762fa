package ipc

import (
	"testing"
	"time"
)

func TestRTTEstimatorConverges(t *testing.T) {
	var tbl rttTable
	tbl.init()
	initial := 50 * time.Millisecond
	floor, ceil := time.Millisecond, 3*time.Second

	if got := tbl.rto(7, initial, floor, ceil); got != initial {
		t.Fatalf("pre-sample rto = %v, want initial %v", got, initial)
	}
	for i := 0; i < 50; i++ {
		tbl.observe(7, 100*time.Millisecond)
	}
	srtt, rttvar, samples := tbl.snapshot(7)
	if samples != 50 {
		t.Fatalf("samples = %d", samples)
	}
	if srtt < 95*time.Millisecond || srtt > 105*time.Millisecond {
		t.Fatalf("srtt = %v, want ~100ms", srtt)
	}
	rto := tbl.rto(7, initial, floor, ceil)
	if rto < srtt || rto > ceil {
		t.Fatalf("rto = %v outside [srtt, ceil]", rto)
	}
	// Steady samples drive the variance term down: the timeout should
	// approach srtt rather than stay at the first-sample srtt + 4·(rtt/2).
	if rto > 2*srtt {
		t.Fatalf("rto = %v did not tighten toward srtt %v (rttvar %v)", rto, srtt, rttvar)
	}
}

func TestRTTBackoffDoublesAndResets(t *testing.T) {
	var tbl rttTable
	tbl.init()
	initial := 20 * time.Millisecond
	floor, ceil := time.Millisecond, 3*time.Second

	tbl.bump(3)
	tbl.bump(3)
	if got, want := tbl.rto(3, initial, floor, ceil), 80*time.Millisecond; got != want {
		t.Fatalf("rto after 2 bumps = %v, want %v", got, want)
	}
	for i := 0; i < 20; i++ {
		tbl.bump(3)
	}
	// The shift count is capped at rtoBackoffMax, so many bumps land at
	// initial << rtoBackoffMax…
	if got, want := tbl.rto(3, initial, floor, ceil), initial<<rtoBackoffMax; got != want {
		t.Fatalf("rto after many bumps = %v, want %v", got, want)
	}
	// …and the ceiling clamps whatever the shift produces.
	if got := tbl.rto(3, initial, floor, time.Second); got != time.Second {
		t.Fatalf("rto = %v, want clamped to 1s ceiling", got)
	}
	tbl.observe(3, 10*time.Millisecond) // clean sample clears the backoff
	if got := tbl.rto(3, initial, floor, ceil); got >= 80*time.Millisecond {
		t.Fatalf("rto after clean sample = %v, backoff not reset", got)
	}
}

func TestRTTFloorClamp(t *testing.T) {
	var tbl rttTable
	tbl.init()
	tbl.observe(9, 20*time.Microsecond) // loopback-scale sample
	if got, want := tbl.rto(9, 50*time.Millisecond, time.Millisecond, time.Second), time.Millisecond; got != want {
		t.Fatalf("rto = %v, want floored at %v", got, want)
	}
}

// wanPair builds a client/server node pair over a mesh with an
// asymmetric WAN profile: the client→server link is slow and lossy, the
// return path slow but clean — the shape where one fixed retransmission
// timeout is always wrong for someone.
func wanPair(t *testing.T, seed int64, adaptive bool) (*Node, *Node, *MemNetwork) {
	t.Helper()
	mesh := NewMemNetwork(seed, FaultConfig{})
	mesh.SetLinkFault(1, 2, FaultConfig{Delay: 50 * time.Millisecond, DropProb: 0.12})
	mesh.SetLinkFault(2, 1, FaultConfig{Delay: 50 * time.Millisecond})
	cfg := NodeConfig{
		RetransmitTimeout: 20 * time.Millisecond, // well under the ~100ms RTT
		Retries:           30,
		AdaptiveRTO:       adaptive,
	}
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
		mesh.Close()
	})
	return na, nb, mesh
}

// TestAdaptiveRTOUnderAsymmetricWAN is the acceptance experiment: with
// a fixed timeout far below the true RTT every exchange retransmits
// several times; the adaptive estimator must learn the ~100ms RTT after
// its first backed-off exchanges and cut retransmissions drastically.
func TestAdaptiveRTOUnderAsymmetricWAN(t *testing.T) {
	const exchanges = 15
	run := func(adaptive bool) (retransmits int64) {
		na, nb, _ := wanPair(t, 42, adaptive)
		server := echoOn(nb, exchanges)
		client := mustAttach(na, "client")
		defer na.Detach(client)
		for i := uint32(1); i <= exchanges; i++ {
			var m Message
			m.SetWord(1, i)
			if err := client.Send(&m, server, nil); err != nil {
				t.Fatalf("adaptive=%v send %d: %v", adaptive, i, err)
			}
			if m.Word(1) != i*2 {
				t.Fatalf("adaptive=%v reply %d = %d", adaptive, i, m.Word(1))
			}
		}
		return counter(na, "ipc.retransmits")
	}

	fixed := run(false)
	adaptive := run(true)
	t.Logf("retransmits over %d exchanges: fixed=%d adaptive=%d", exchanges, fixed, adaptive)
	// Fixed 20ms against a 100ms RTT retransmits ~4-5× per exchange;
	// adaptive pays a few during its initial backoff and then only for
	// genuine loss. Require at least a 2× drop to stay noise-proof.
	if adaptive*2 >= fixed {
		t.Fatalf("adaptive retransmits %d not under half of fixed %d", adaptive, fixed)
	}
}

// TestAdaptiveRTOLearnsEstimate checks the estimator is actually fed
// from live Send→Reply timing and lands near the true RTT.
func TestAdaptiveRTOLearnsEstimate(t *testing.T) {
	const exchanges = 10
	na, nb, _ := wanPair(t, 7, true)
	server := echoOn(nb, exchanges)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	for i := uint32(1); i <= exchanges; i++ {
		var m Message
		m.SetWord(1, i)
		if err := client.Send(&m, server, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	srtt, _, samples := na.PeerRTT(2)
	if samples == 0 {
		t.Fatal("no clean RTT samples recorded")
	}
	if got := counter(na, "ipc.rtt_samples"); got != samples {
		t.Fatalf("ipc.rtt_samples %d != table samples %d", got, samples)
	}
	if srtt < 80*time.Millisecond || srtt > 250*time.Millisecond {
		t.Fatalf("srtt = %v, want near the 100ms link RTT", srtt)
	}
}

// TestAdaptiveRTOCleanPathStaysQuiet: on a fault-free mesh the adaptive
// node must behave like the fixed one — no retransmissions, and the
// estimator simply tracks the (tiny) in-memory RTT.
func TestAdaptiveRTOCleanPathStaysQuiet(t *testing.T) {
	mesh := NewMemNetwork(1, FaultConfig{})
	defer mesh.Close()
	cfg := NodeConfig{RetransmitTimeout: 20 * time.Millisecond, Retries: 5, AdaptiveRTO: true}
	na := NewNode(1, mesh.Transport(1), cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	defer func() { _ = na.Close(); _ = nb.Close() }()
	const exchanges = 50
	server := echoOn(nb, exchanges)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	for i := uint32(1); i <= exchanges; i++ {
		var m Message
		m.SetWord(1, i)
		if err := client.Send(&m, server, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if r := counter(na, "ipc.retransmits"); r != 0 {
		t.Fatalf("clean path retransmitted %d times", r)
	}
	if s := counter(na, "ipc.rtt_samples"); s != exchanges {
		t.Fatalf("sampled %d of %d clean exchanges", s, exchanges)
	}
}
