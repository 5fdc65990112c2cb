package flowtime

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// FuzzSnapshotRestore drives the full engine restore path — container
// framing, every engine section, the ostree.Flat B-tree decode and the
// policy state — over mutated snapshot bytes. The contract under test is the
// acceptance criterion of the checkpoint subsystem: corrupted or truncated
// snapshots must fail loudly with an error, never panic, never hang, and
// never misparse into a session that silently diverges. Inputs that restore
// cleanly (the pristine seed, or mutations of bytes the format ignores) must
// produce a session that can drain and close.
func FuzzSnapshotRestore(f *testing.F) {
	cfg := workload.DefaultConfig(80, 3, 17)
	cfg.Load = 1.4
	ins := workload.Random(cfg)
	for _, opt := range []Options{{Epsilon: 0.2}, {Epsilon: 0.3, TrackDual: true}} {
		s, err := NewSession(ins.Machines, opt)
		if err != nil {
			f.Fatal(err)
		}
		if err := s.FeedBatch(ins.Jobs[:40]); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte("SCHSNAP\x00"))

	f.Fuzz(func(t *testing.T, b []byte) {
		// Try both donor configurations: the option echo rejects the
		// mismatched one early, so restoring under each is what lets
		// mutations of the TrackDual seed reach the dual decode path.
		for _, opt := range []Options{{Epsilon: 0.2}, {Epsilon: 0.3, TrackDual: true}} {
			s, err := Restore(bytes.NewReader(b), opt)
			if err != nil {
				continue // rejected loudly: the expected outcome for corrupt bytes
			}
			// A snapshot that survived every validation layer must behave
			// like a session: drain and close without panicking. Audit
			// errors are legal (the audit exists to catch exactly this), a
			// crash is not.
			if _, err := s.Close(); err != nil {
				t.Logf("restored session failed its audit: %v", err)
			}
		}
	})
}
