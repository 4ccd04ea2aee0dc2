// pagerank-failover reproduces the paper's Fig 12 case study as a runnable
// program: PageRank on an LJournal-like graph under the four fault-tolerance
// strategies, with one machine crashing between iterations 6 and 7. It prints
// each configuration's timeline so the recovery-cost differences are
// visible: Migration is fastest, Rebirth close behind, logged recovery pays
// only the reborn node's replay, and checkpointing pays a long reload plus
// replayed iterations on every node.
package main

import (
	"fmt"
	"log"
	"os"

	"imitator/pkg/imitator"
)

const (
	nodes    = 8
	iters    = 20
	failIter = 6
)

func main() {
	g := imitator.MustLoadDataset("ljournal")
	fmt.Printf("PageRank on %d vertices / %d edges, %d nodes, failure after iteration %d\n\n",
		g.NumVertices(), g.NumEdges(), nodes, failIter)

	configs := []struct {
		label string
		cfg   imitator.Config
		fail  bool
		lossy bool
	}{
		{"BASE (no FT, no failure)", job(imitator.NoRecovery()), false, false},
		{"REP (no failure)", job(imitator.Replication()), false, false},
		{"CKPT/4 (no failure)", job(imitator.Checkpoint(4)), false, false},
		{"REP + Rebirth", job(imitator.Replication()), true, false},
		{"REP + Migration", job(imitator.Migration()), true, false},
		{"CKPT/4 + recovery", job(imitator.Checkpoint(4)), true, false},
		// Log-based failure-confined recovery: only the reborn node replays
		// its own logs, the survivors never re-execute a superstep.
		{"LOGGED/4 + replay", job(imitator.LoggedRecovery(imitator.LoggedCompactEvery(4))), true, false},
		// The same crash, but now the network also drops and reorders
		// frames: the reliable-delivery layer retransmits through it and
		// the answer stays bit-identical — only the timeline stretches.
		{"REP + Rebirth (lossy net)", job(imitator.Replication()), true, true},
	}
	for _, c := range configs {
		cfg := c.cfg
		if c.fail {
			cfg.Chaos = imitator.FailureSchedule{
				imitator.Crash(failIter, imitator.FailAfterBarrier, 1),
			}
		}
		if c.lossy {
			cfg.Chaos = append(cfg.Chaos,
				imitator.Drop(1, 0, 2, 0.3),
				imitator.Reorder(1, 3, 4, 0.5),
			)
			cfg.ChaosSeed = 42
		}
		res := run(g, cfg)
		recovery := 0.0
		for _, r := range res.Recoveries {
			recovery += r.TotalSeconds()
		}
		fmt.Printf("%-26s total %7.3f s   recovery %6.3f s   persist %5.3f s\n",
			c.label, res.SimSeconds, recovery, res.Strategy.PersistSeconds)
		if o := res.Omission; o != nil {
			fmt.Printf("%-26s %d retransmits, %d frames re-sequenced\n", "", o.Retransmits, o.Reordered)
		}
		if c.fail {
			imitator.RenderTimeline(os.Stdout, res.Trace)
			fmt.Println()
		}
	}
}

// job builds the shared cluster shape; the strategy is the only thing the
// configurations vary.
func job(strat imitator.FTStrategy) imitator.Config {
	return imitator.New(
		imitator.WithNodes(nodes),
		imitator.WithIterations(iters),
		imitator.WithFTStrategy(strat),
		imitator.WithMaxRebirths(2),
	)
}

func run(g *imitator.Graph, cfg imitator.Config) *imitator.Result[float64] {
	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		log.Fatal(err)
	}
	return res
}
