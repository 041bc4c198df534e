package experiments

import (
	"errors"
	"fmt"

	"overlay"
	"overlay/internal/sim"
	"overlay/internal/topology"
)

// Ablations of the two calibrated design choices (tables A1 and A2):
// the walk length ℓ and the benign degree ∆. The paper leaves both as
// "big enough" constants; these experiments show where the practical
// cliff sits, which is the information a downstream user needs to
// retune for other scales.

// AblationWalkLength sweeps ℓ at fixed ∆ and reports, across seeds,
// how many runs end connected and the median final spectral gap.
// Lemma 3.1 predicts a Θ(√ℓ) per-evolution conductance factor — but
// below a threshold ℓ the evolutions fragment the graph (tokens
// self-arrive, cross-degree decays), which is the failure mode the
// Λ-cut property guards against.
func AblationWalkLength(n int, ells []int, seeds int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "A1",
		Claim:  "ablation: walk length ℓ vs. connectivity and final conductance",
		Header: []string{"ell", "connected runs", "median gap", "median diameter"},
	}
	g := inputGraph(topology.Line(n))
	for _, ell := range ells {
		gaps := make([]float64, 0, seeds)
		diams := make([]int, 0, seeds)
		connected := 0
		for s := 0; s < seeds; s++ {
			res, err := overlay.BuildTree(g, &overlay.Options{Seed: seed + uint64(s), Ell: ell})
			if errors.Is(err, overlay.ErrEvolutionDisconnected) {
				continue
			}
			if err != nil {
				return nil, err
			}
			connected++
			gaps = append(gaps, res.Stats.SpectralGap)
			diams = append(diams, res.Stats.ExpanderDiameter)
		}
		t.Rows = append(t.Rows, []string{
			itoa(ell), fmt.Sprintf("%d/%d", connected, seeds),
			fmtMedianF(gaps), fmtMedianI(diams),
		})
	}
	return t, nil
}

// AblationDelta sweeps the ∆ multiplier at fixed ℓ, the other side of
// the calibration: ∆/8 tokens per node drive both the edge supply and
// the Chernoff concentration of every cut.
func AblationDelta(n int, multipliers []int, seeds int, seed uint64) (*Table, error) {
	t := &Table{
		Name:   "A2",
		Claim:  "ablation: degree ∆ = k·log n vs. connectivity and final conductance",
		Header: []string{"k", "delta", "connected runs", "median gap"},
	}
	g := inputGraph(topology.Line(n))
	lg := sim.LogBound(n)
	for _, k := range multipliers {
		delta := k * lg
		if delta < 16 {
			delta = 16
		}
		if r := delta % 8; r != 0 {
			delta += 8 - r
		}
		// Λ must fit the ∆/2 cross-slot budget: 2dΛ ≤ ∆ with d = 2.
		lambda := lg
		if max := delta / 4; lambda > max {
			lambda = max
		}
		gaps := make([]float64, 0, seeds)
		connected := 0
		for s := 0; s < seeds; s++ {
			res, err := overlay.BuildTree(g, &overlay.Options{Seed: seed + uint64(s), Delta: delta, Lambda: lambda})
			if errors.Is(err, overlay.ErrEvolutionDisconnected) {
				continue
			}
			if err != nil {
				return nil, err
			}
			connected++
			gaps = append(gaps, res.Stats.SpectralGap)
		}
		t.Rows = append(t.Rows, []string{
			itoa(k), itoa(delta), fmt.Sprintf("%d/%d", connected, seeds), fmtMedianF(gaps),
		})
	}
	return t, nil
}

func fmtMedianF(vals []float64) string {
	if len(vals) == 0 {
		return "-"
	}
	sortFloats(vals)
	return fmt.Sprintf("%.4f", vals[len(vals)/2])
}

func fmtMedianI(vals []int) string {
	if len(vals) == 0 {
		return "-"
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return itoa(vals[len(vals)/2])
}

func sortFloats(vals []float64) {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
}
