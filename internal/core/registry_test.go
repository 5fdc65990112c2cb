package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRegistryMatchesRun pins every registry entry to its package's own
// batch Run: open + FeedBatch + Finish must give the same Outcome, which
// must pass the entry's audit mode. The goldens compare sessions with
// sessions, so they cannot see an entry that passes ε or α wrongly; this
// test can. ε, α and the instance's own α are all distinct and none is a
// package default.
func TestRegistryMatchesRun(t *testing.T) {
	cfg := workload.DefaultConfig(400, 3, 17)
	cfg.Load = 1.3
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 3
	p := core.Params{Epsilon: 0.35, Alpha: 2.5, SizeHint: len(ins.Jobs)}

	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	runs := map[string]func(*testing.T) *sched.Outcome{
		"flowtime": func(t *testing.T) *sched.Outcome {
			res, err := flowtime.Run(ins, flowtime.Options{Epsilon: p.Epsilon})
			must(t, err)
			return res.Outcome
		},
		"wflow": func(t *testing.T) *sched.Outcome {
			res, err := wflow.Run(ins, wflow.Options{Epsilon: p.Epsilon})
			must(t, err)
			return res.Outcome
		},
		"speedscale": func(t *testing.T) *sched.Outcome {
			res, err := speedscale.Run(ins, speedscale.Options{Epsilon: p.Epsilon, Alpha: p.Alpha})
			must(t, err)
			return res.Outcome
		},
		"srpt": func(t *testing.T) *sched.Outcome {
			res, err := srpt.Run(ins, srpt.Options{})
			must(t, err)
			return res.Outcome
		},
		"wsrpt": func(t *testing.T) *sched.Outcome {
			res, err := srpt.RunWeighted(ins, srpt.WeightedOptions{})
			must(t, err)
			return res.Outcome
		},
	}

	for _, pol := range core.Policies() {
		t.Run(pol.Name, func(t *testing.T) {
			run, ok := runs[pol.Name]
			if !ok {
				t.Fatalf("no reference batch run for policy %q", pol.Name)
			}
			s, err := pol.Open(ins.Machines, p, nil)
			must(t, err)
			must(t, s.FeedBatch(ins.Jobs))
			got, err := s.Finish()
			must(t, err)
			if !reflect.DeepEqual(got, run(t)) {
				t.Fatal("registry session outcome differs from the package's batch run")
			}
			if err := sched.ValidateOutcome(ins, got, pol.Mode); err != nil {
				t.Fatalf("outcome fails the entry's audit mode: %v", err)
			}
		})
	}
	if len(core.Policies()) != len(runs) {
		t.Fatalf("registry holds %d policies, the reference runs cover %d", len(core.Policies()), len(runs))
	}
}

// TestLookupUnknownNamesEveryPolicy checks that a name outside the registry
// fails with an error listing every registered policy.
func TestLookupUnknownNamesEveryPolicy(t *testing.T) {
	for _, name := range []string{"energymin", ""} {
		_, err := core.Lookup(name)
		if err == nil {
			t.Fatalf("Lookup(%q) succeeded", name)
		}
		for _, want := range []string{"flowtime", "wflow", "speedscale", "srpt", "wsrpt"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Lookup(%q) error %q does not name %s", name, err, want)
			}
		}
	}
	for _, name := range core.Names() {
		if pol, err := core.Lookup(name); err != nil || pol.Name != name {
			t.Errorf("Lookup(%q) = %q, %v", name, pol.Name, err)
		}
	}
}
