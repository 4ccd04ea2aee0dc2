package ftmodel

import (
	"math"
	"testing"
)

func TestPaperNumbers(t *testing.T) {
	// §6.11: CKPT cost 75.63 s, REP cost 0.31 s, MTBF 7.3 days. The paper
	// reports optimal intervals 9,768 s and 623 s, and efficiencies 98.44%
	// and 99.90%.
	ckpt := Scenario{CostPerInterval: 75.63, MTBF: PaperMTBF, RecoverySeconds: 183.7}
	rep := Scenario{CostPerInterval: 0.31, MTBF: PaperMTBF, RecoverySeconds: 33.4}
	cmp, err := Compare(ckpt, rep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmp.CkptInterval-9768) > 20 {
		t.Errorf("ckpt interval = %.0f, paper says 9768", cmp.CkptInterval)
	}
	if math.Abs(cmp.RepInterval-623) > 5 {
		t.Errorf("rep interval = %.0f, paper says 623", cmp.RepInterval)
	}
	if math.Abs(cmp.CkptEfficiency-0.9844) > 0.002 {
		t.Errorf("ckpt efficiency = %.4f, paper says 0.9844", cmp.CkptEfficiency)
	}
	if math.Abs(cmp.RepEfficiency-0.9990) > 0.001 {
		t.Errorf("rep efficiency = %.4f, paper says 0.9990", cmp.RepEfficiency)
	}
	if cmp.RepEfficiency <= cmp.CkptEfficiency {
		t.Error("replication should dominate checkpointing")
	}
}

func TestOptimalIntervalIsOptimal(t *testing.T) {
	s := Scenario{CostPerInterval: 10, MTBF: 100000, RecoverySeconds: 50}
	opt := s.OptimalInterval()
	best := s.Efficiency(opt)
	for _, f := range []float64{0.5, 0.8, 1.25, 2} {
		if e := s.Efficiency(opt * f); e > best+1e-12 {
			t.Errorf("interval %.0f beats the 'optimal' %.0f: %v > %v", opt*f, opt, e, best)
		}
	}
}

func TestEfficiencyMonotoneInCost(t *testing.T) {
	cheap := Scenario{CostPerInterval: 1, MTBF: 1e5, RecoverySeconds: 10}
	costly := Scenario{CostPerInterval: 100, MTBF: 1e5, RecoverySeconds: 10}
	if cheap.OptimalEfficiency() <= costly.OptimalEfficiency() {
		t.Error("cheaper per-interval cost should yield higher efficiency")
	}
}

func TestValidate(t *testing.T) {
	if (Scenario{CostPerInterval: 0, MTBF: 1}).Validate() == nil {
		t.Error("zero cost accepted")
	}
	if (Scenario{CostPerInterval: 1, MTBF: 0}).Validate() == nil {
		t.Error("zero MTBF accepted")
	}
	if _, err := Compare(Scenario{}, Scenario{CostPerInterval: 1, MTBF: 1}); err == nil {
		t.Error("Compare accepted invalid scenario")
	}
}
