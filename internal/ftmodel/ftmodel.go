// Package ftmodel implements the first-order checkpoint-interval analysis
// of Young [CACM'74] that the paper uses in §6.11 (and footnote 2) to
// compare the theoretical efficiency of checkpoint-based and
// replication-based fault tolerance.
package ftmodel

import (
	"fmt"
	"math"
)

// Scenario describes one fault-tolerance scheme under analysis.
type Scenario struct {
	// CostPerInterval is the overhead paid once per interval, in seconds:
	// one checkpoint for CKPT, or one interval's worth of replication sync
	// overhead for REP.
	CostPerInterval float64
	// MTBF is the cluster's mean time between failures, in seconds. The
	// paper assumes 7.3 days for a 50-node cluster [GraphLab].
	MTBF float64
	// RecoverySeconds is the expected time to recover one failure.
	RecoverySeconds float64
}

// Validate reports nonsensical parameters.
func (s Scenario) Validate() error {
	if s.CostPerInterval <= 0 || s.MTBF <= 0 || s.RecoverySeconds < 0 {
		return fmt.Errorf("ftmodel: invalid scenario %+v", s)
	}
	return nil
}

// OptimalInterval returns Young's first-order optimum sqrt(2 * C * MTBF).
func (s Scenario) OptimalInterval() float64 {
	return math.Sqrt(2 * s.CostPerInterval * s.MTBF)
}

// Efficiency returns the fraction of time spent on useful work when
// checkpointing every interval seconds: 1 / (1 + C/T + T/(2*MTBF) + R/MTBF).
// The three waste terms are the periodic overhead, the expected lost work
// per failure (half an interval), and the recovery time amortized over the
// MTBF.
func (s Scenario) Efficiency(interval float64) float64 {
	waste := s.CostPerInterval/interval + interval/(2*s.MTBF) + s.RecoverySeconds/s.MTBF
	return 1 / (1 + waste)
}

// OptimalEfficiency evaluates Efficiency at the optimal interval.
func (s Scenario) OptimalEfficiency() float64 {
	return s.Efficiency(s.OptimalInterval())
}

// PaperMTBF is the 50-node cluster MTBF the paper assumes: about 7.3 days.
const PaperMTBF = 7.3 * 24 * 3600

// Comparison reproduces the §6.11 analysis for a pair of schemes.
type Comparison struct {
	CkptInterval, RepInterval     float64
	CkptEfficiency, RepEfficiency float64
}

// Compare evaluates both schemes at their optimal intervals.
func Compare(ckpt, rep Scenario) (Comparison, error) {
	if err := ckpt.Validate(); err != nil {
		return Comparison{}, err
	}
	if err := rep.Validate(); err != nil {
		return Comparison{}, err
	}
	return Comparison{
		CkptInterval:   ckpt.OptimalInterval(),
		RepInterval:    rep.OptimalInterval(),
		CkptEfficiency: ckpt.OptimalEfficiency(),
		RepEfficiency:  rep.OptimalEfficiency(),
	}, nil
}
