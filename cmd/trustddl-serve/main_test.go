package main

import (
	"strings"
	"testing"

	trustddl "github.com/trustddl/trustddl"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-committees", "0"}, "-committees"},
		{[]string{"-committees", "-2"}, "-committees"},
		{[]string{"-chaos-stall-committee", "-1"}, "-chaos-stall-committee"},
		{[]string{"-committees", "2", "-chaos-stall-committee", "3"}, "-chaos-stall-committee"},
		{[]string{"-probe-every", "0s"}, "-probe-every"},
		{[]string{"-probe-every", "-1s"}, "-probe-every"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

func TestEngineConfigsSeeds(t *testing.T) {
	base := trustddl.Config{Mode: trustddl.HonestButCurious, Seed: 7}
	cfgs := engineConfigs(base, 4, 0, nil)
	if len(cfgs) != 4 {
		t.Fatalf("%d configs for 4 engines", len(cfgs))
	}
	if cfgs[0].Seed != base.Seed {
		t.Fatalf("engine 0 dealt with seed %d, want -seed %d", cfgs[0].Seed, base.Seed)
	}
	seen := map[uint64]int{}
	for i, cfg := range cfgs {
		if cfg.Seed == 0 {
			t.Fatalf("engine %d: seeded deployment got live randomness", i)
		}
		if j, dup := seen[cfg.Seed]; dup {
			t.Fatalf("engines %d and %d share dealer seed %d", j, i, cfg.Seed)
		}
		seen[cfg.Seed] = i
		if cfg.Mode != base.Mode || cfg.Interceptors != nil {
			t.Fatalf("engine %d: config %+v diverges from base beyond the seed", i, cfg)
		}
	}
	for i, cfg := range engineConfigs(trustddl.Config{}, 3, 0, nil) {
		if cfg.Seed != 0 {
			t.Fatalf("engine %d: seed 0 became %d, want live randomness", i, cfg.Seed)
		}
	}
}

func TestEngineConfigsStallLandsOnNamedEngine(t *testing.T) {
	stall := trustddl.DropAll()
	for _, tc := range []struct{ n, stallEngine int }{{1, 1}, {2, 1}, {2, 2}, {3, 2}} {
		for i, cfg := range engineConfigs(trustddl.Config{Seed: 1}, tc.n, tc.stallEngine, stall) {
			if i+1 == tc.stallEngine {
				if len(cfg.Interceptors) != 1 || cfg.Interceptors[1] == nil {
					t.Errorf("n=%d: stalled engine %d has interceptors %v, want party 1 only", tc.n, i+1, cfg.Interceptors)
				}
			} else if cfg.Interceptors != nil {
				t.Errorf("n=%d: engine %d got an interceptor, only %d should", tc.n, i+1, tc.stallEngine)
			}
		}
	}
}
