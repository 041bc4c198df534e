package experiments

// Benchmark harness: one bench target per experiment table (E1–E12,
// A1–A2; README, "Tests, benches, CI"). Each bench regenerates its
// experiment's table (printed once per run via b.Logf at -v) and times
// the underlying workload so -benchmem reports the cost profile;
// cmd/benchharness prints the same tables standalone.

import "testing"

const benchSeed = 2021 // PODC year; fixed for reproducibility

func logTable(b *testing.B, t *Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", t)
}

func BenchmarkE1_RoundsVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E1RoundsVsN([]int{64, 256, 1024}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE2_MessageComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E2Messages([]int{64, 256, 1024}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE3_ConductanceGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E3Conductance(512, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE4_TokenLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E4TokenLoad(512, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE5_TreeQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E5TreeQuality([]int{64, 256, 1024}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE6_VsSupernodeBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E6Baseline([]int{64, 256, 1024}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE7_ConnectedComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E7CC(512, []int{16, 32, 64, 128, 256}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE8_SpanningTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E8SpanningTree([]int{64, 256, 1024}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE9_Biconnectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E9Biconnectivity(benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE10_MIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E10MIS(400, []int{2, 4, 8, 16, 32}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkE11_Spanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E11Spanner([]int{128, 256, 512}, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

// BenchmarkE12_ScaleSweep drives the full message-level pipeline at
// 4k/16k/64k nodes. One iteration is minutes of simulated traffic; run
// it with -benchtime=1x (see the Makefile's bench-scale target).
func BenchmarkE12_ScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := E12ScaleSweep([]int{4096, 16384, 65536}, benchSeed, 0)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

// Ablation benches for the calibrated design choices (tables A1, A2).

func BenchmarkA1_WalkLengthAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := AblationWalkLength(256, []int{2, 4, 8, 16, 32}, 5, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}

func BenchmarkA2_DeltaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := AblationDelta(256, []int{2, 4, 8, 16}, 5, benchSeed)
		if i == 0 {
			logTable(b, t, err)
		}
	}
}
