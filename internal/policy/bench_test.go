package policy

// Hot-path microbenchmarks for the reuse-distance policy family (perfbench's
// policy.<name>.ns_per_llc_access times every policy end to end). The
// access mix (skewed reuse + scan) exercises training, the sampler sweep,
// and the eviction loop together, with hawkeye and glider alongside as the
// established baselines; lrfu, perceptron and mpppb pin the allocation-free
// hot paths that TestPolicyAccessAllocs guards.

import (
	"testing"

	"glider/internal/cache"
	"glider/internal/trace"
)

// benchPolicyAccess drives a steady miss-heavy access mix through a full
// cache+policy stack — the same call path the simulator uses.
func benchPolicyAccess(b *testing.B, p cache.Policy) {
	const sets, ways = 256, 8
	c, err := cache.New(cache.Config{Name: "bench", Sets: sets, Ways: ways}, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	scan := uint64(1 << 30)
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0, 1: // skewed reuse
			c.Access(uint64(i%13), uint64(i%4096), 0, trace.Load)
		case 2: // store to a smaller hot set
			c.Access(uint64(i%7), uint64(i%512), 0, trace.Store)
		default: // scan
			c.Access(31, scan, 0, trace.Load)
			scan++
		}
	}
}

func BenchmarkFRDAccess(b *testing.B) { benchPolicyAccess(b, NewFRD(256, 8)) }

func BenchmarkMSAAccess(b *testing.B) { benchPolicyAccess(b, NewMSA(256, 8)) }

func BenchmarkHawkeyeAccess(b *testing.B) { benchPolicyAccess(b, NewHawkeye(256, 8)) }

func BenchmarkGliderAccess(b *testing.B) { benchPolicyAccess(b, NewGlider(256, 8)) }

func BenchmarkLRFUAccess(b *testing.B) { benchPolicyAccess(b, NewLRFU(256, 8, 0.001)) }

func BenchmarkPerceptronAccess(b *testing.B) { benchPolicyAccess(b, NewPerceptron(256, 8)) }

func BenchmarkMPPPBAccess(b *testing.B) { benchPolicyAccess(b, NewMPPPB(256, 8)) }

// TestPolicyAccessAllocs guards the allocation-free hot paths: once a cache
// is warm, replaying a repeating mix of reuse, stores and a cyclic scan
// through these policies allocates nothing. Not parallel: AllocsPerRun
// counts every allocation in the process.
func TestPolicyAccessAllocs(t *testing.T) {
	const sets, ways = 64, 8
	// Two sweep periods per pass keep FRD's and MSA's expiry sweeps in
	// phase with the mix.
	const passLen = 2 * sweepPeriod
	for _, name := range []string{"lrfu", "perceptron", "mpppb", "frd", "msa"} {
		p, _ := New(name, sets, ways)
		c, err := cache.New(cache.Config{Name: "allocs", Sets: sets, Ways: ways}, p)
		if err != nil {
			t.Fatal(err)
		}
		pass := func() {
			for i := 0; i < passLen; i++ {
				switch i % 4 {
				case 0, 1: // skewed reuse
					c.Access(uint64(i%13), uint64(i%1024), 0, trace.Load)
				case 2: // store to a smaller hot set
					c.Access(uint64(i%7), uint64(i%128), 0, trace.Store)
				default: // cyclic scan over 4× capacity
					c.Access(31, 1<<30+uint64(i%(4*sets*ways*4)), 0, trace.Load)
				}
			}
		}
		for i := 0; i < 3; i++ {
			pass()
		}
		if allocs := testing.AllocsPerRun(4, pass); allocs != 0 {
			t.Errorf("%s: %v allocations per %d-access pass on a warm cache, want 0", name, allocs, passLen)
		}
	}
}
