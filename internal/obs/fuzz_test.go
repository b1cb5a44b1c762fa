package obs

import (
	"maps"
	"testing"
)

// FuzzParseSnapshot: a scrape is a wire parser (vstat reads snapshots
// from any node that answers OpQueryStats). Whatever the bytes, it must
// not panic; and a registry holding a counter of the fuzzed name and
// value must come back from its own Serialize output with the same
// counters, under their sanitized names.
func FuzzParseSnapshot(f *testing.F) {
	r := New()
	r.SetNode("srv 1")
	r.Counter("ipc.sends").Add(10)
	r.Gauge("rfs.dirty").Set(3)
	r.Histogram("rfs.read_ns").Observe(500)
	r.Trace().Record(0xabc, "rfs.page_read", 17, 250)
	f.Add(r.Serialize(), "rfs.page_reads", int64(7))
	f.Add([]byte("v 1\nc a 1\nh x 1 2 3\nt 1 2\n"), "a b\tc", int64(-1))
	f.Add([]byte("v 2\n"), "", int64(0))
	f.Add([]byte("garbage"), "x\ry", int64(1<<62))
	f.Fuzz(func(t *testing.T, data []byte, name string, value int64) {
		_, _ = ParseSnapshot(data)

		r := New()
		r.Counter(name).Add(value)
		r.Counter("ipc.sends").Add(1)
		want := make(map[string]int64)
		r.Do(func(name string, v int64) { want[sanitize(name)] = v }, nil, nil)
		snap, err := ParseSnapshot(r.Serialize())
		if err != nil {
			t.Fatalf("ParseSnapshot of Serialize: %v", err)
		}
		if !maps.Equal(snap.Counters, want) {
			t.Fatalf("counters = %v, want %v", snap.Counters, want)
		}
	})
}
