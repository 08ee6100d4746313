package policy

// Hot-path microbenchmarks for the reuse-distance policy family (perfbench's
// policy.<name>.ns_per_llc_access times every policy end to end). The
// access mix (skewed reuse + scan) exercises training, the sampler sweep,
// and the eviction loop together, with hawkeye and glider alongside as the
// established baselines.

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
