package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"imitator/internal/datasets"
)

// TestStrategyDecidesPersistence: Config.Recovery is the one fault-tolerance
// switch. After a fault-free run the DFS holds exactly the files the selected
// strategy's recovery reads, Result.Strategy names it, and Validate checks
// only that strategy's parameters: the others may be out of range because
// nothing reads them.
func TestStrategyDecidesPersistence(t *testing.T) {
	g := datasets.Tiny(300, 1800, 912)
	for _, tc := range []struct {
		rec                RecoveryKind
		edgeCut, vertexCut []string // top-level DFS directories after the run
		own                func(*Config) *int
		good               int
	}{
		{RecoverNone, nil, nil, nil, 0},
		{RecoverRebirth, nil, []string{"edgeckpt/"}, func(c *Config) *int { return &c.FT.K }, 1},
		{RecoverMigration, nil, []string{"edgeckpt/"}, func(c *Config) *int { return &c.FT.K }, 1},
		{RecoverCheckpoint, []string{"ckpt/", "ckptmeta/"}, []string{"ckpt/", "ckptmeta/"},
			func(c *Config) *int { return &c.Checkpoint.Interval }, 2},
		{RecoverLogged, []string{"ckptmeta/", "ftlog/"}, []string{"ckptmeta/", "ftlog/"},
			func(c *Config) *int { return &c.Logged.CompactEvery }, 0},
	} {
		for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
			t.Run(fmt.Sprintf("%v/%v", mode, tc.rec), func(t *testing.T) {
				cfg := DefaultConfig(mode, 4)
				cfg.MaxIter = 4
				cfg.Recovery = tc.rec
				// Every strategy's parameter starts out of range; only the
				// selected strategy's is then set to a valid value.
				cfg.FT.K, cfg.Checkpoint.Interval, cfg.Logged.CompactEvery = 0, 0, -1
				broken := 0
				if tc.own != nil {
					p := tc.own(&cfg)
					broken, *p = *p, tc.good
				}
				if err := cfg.Validate(); err != nil {
					t.Fatalf("unselected strategies' parameters were validated: %v", err)
				}
				cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Strategy.Kind != tc.rec.String() {
					t.Errorf("Strategy.Kind = %q, want %q", res.Strategy.Kind, tc.rec.String())
				}
				var got []string
				for _, path := range cl.dfs.List("") {
					dir, _, _ := strings.Cut(path, "/")
					if dir += "/"; len(got) == 0 || got[len(got)-1] != dir {
						got = append(got, dir)
					}
				}
				want := tc.edgeCut
				if mode == VertexCutMode {
					want = tc.vertexCut
				}
				if !slices.Equal(got, want) {
					t.Errorf("DFS holds %v, want %v", got, want)
				}
				if tc.own != nil {
					*tc.own(&cfg) = broken
					if err := cfg.Validate(); !errors.Is(err, ErrInvalidStrategy) {
						t.Errorf("selected strategy's parameter %d accepted: err = %v", broken, err)
					}
				}
			})
		}
	}
}
