package policy

import (
	"fmt"
	"strings"
	"testing"

	"glider/internal/cache"
	"glider/internal/workload"
)

// TestLearnedPolicyGolden pins the four sampled-set learners (Hawkeye,
// Glider, FRD, MSA) byte for byte on two quality scenarios: the LLC
// statistics, the policy's training counters and, for the reuse-distance
// models, the top introspection rows. A change to the order in which the
// sampler trains or expires records — or to anything the models learn —
// shows up here as a diff, even when every tolerance test still passes.
func TestLearnedPolicyGolden(t *testing.T) {
	t.Parallel()
	scenarios := map[string]string{"scan": qualityScenarios[1], "omnetpp": qualityScenarios[2]}
	cases := []struct {
		policy, scenario string
		want             string
	}{
		{"hawkeye", "scan", `stats {Accesses:120000 Hits:63733 Misses:56267 Evictions:54219 Writebacks:4415 Bypasses:0 PerCore:[{Accesses:120000 Hits:63733 Misses:56267} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug {TrainPos:75384 TrainNeg:78393 PredictFriendlyN:0 PredictAverseN:0}`},
		{"hawkeye", "omnetpp", `stats {Accesses:120000 Hits:3390 Misses:116610 Evictions:114562 Writebacks:0 Bypasses:0 PerCore:[{Accesses:120000 Hits:3390 Misses:116610} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug {TrainPos:2229 TrainNeg:119934 PredictFriendlyN:0 PredictAverseN:0}`},
		{"glider", "scan", `stats {Accesses:120000 Hits:64848 Misses:55152 Evictions:53104 Writebacks:3764 Bypasses:0 PerCore:[{Accesses:120000 Hits:64848 Misses:55152} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug samples=115477 pos=14956 neg=14752 skipped=85769`},
		{"glider", "omnetpp", `stats {Accesses:120000 Hits:2129 Misses:117871 Evictions:115823 Writebacks:0 Bypasses:0 PerCore:[{Accesses:120000 Hits:2129 Misses:117871} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug samples=110336 pos=357 neg=901 skipped=109078`},
		{"frd", "scan", `stats {Accesses:120000 Hits:59269 Misses:60731 Evictions:55983 Writebacks:4607 Bypasses:2700 PerCore:[{Accesses:120000 Hits:59269 Misses:60731} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug {TrainEvents:76444 SumAbsErr:228280 SumErr:3694 Expiries:39781 Bypasses:2700}
row {PC:5898240 Samples:9998 MeanAbsErr:3.3079615923184638 ErrHist:[1787 786 961 938 972 939 753 641 2221] Predicted:[0]}
row {PC:5898256 Samples:6975 MeanAbsErr:3.401863799283154 ErrHist:[1405 527 590 626 632 635 551 443 1566] Predicted:[9]}
row {PC:5898272 Samples:5778 MeanAbsErr:3.300449982692973 ErrHist:[1140 416 530 511 516 498 522 443 1202] Predicted:[9]}
row {PC:5898288 Samples:5141 MeanAbsErr:3.1666990857809765 ErrHist:[1004 359 444 478 506 500 442 383 1025] Predicted:[8]}
row {PC:5898304 Samples:4896 MeanAbsErr:3.0467728758169934 ErrHist:[898 382 440 446 517 477 442 381 913] Predicted:[8]}
row {PC:5898320 Samples:4550 MeanAbsErr:3.016263736263736 ErrHist:[815 347 381 457 433 487 415 374 841] Predicted:[14]}
row {PC:5898336 Samples:4412 MeanAbsErr:2.9891205802357206 ErrHist:[792 311 378 484 446 444 400 363 794] Predicted:[7]}
row {PC:5898352 Samples:4204 MeanAbsErr:2.8744053282588014 ErrHist:[721 314 350 406 471 469 412 346 715] Predicted:[8]}`},
		{"frd", "omnetpp", `stats {Accesses:120000 Hits:3204 Misses:116796 Evictions:34401 Writebacks:0 Bypasses:80347 PerCore:[{Accesses:120000 Hits:3204 Misses:116796} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug {TrainEvents:2553 SumAbsErr:1458 SumErr:1408 Expiries:108039 Bypasses:80347}
row {PC:4198400 Samples:2553 MeanAbsErr:0.5710928319623971 ErrHist:[1 0 3 14 1121 1402 6 5 1] Predicted:[15]}`},
		{"msa", "scan", `stats {Accesses:120000 Hits:64416 Misses:55584 Evictions:45922 Writebacks:4094 Bypasses:7614 PerCore:[{Accesses:120000 Hits:64416 Misses:55584} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug {TrainEvents:76444 SumAbsErr:176036 SumErr:5568 TopKHits:58883 Expiries:39781 Bypasses:7614}
row {PC:5898240 Samples:9998 MeanAbsErr:2.625125025005001 ErrHist:[1208 973 1324 1352 1253 919 682 554 1733] Predicted:[4 3 5 4]}
row {PC:5898256 Samples:6975 MeanAbsErr:2.6153405017921147 ErrHist:[901 670 791 855 753 712 590 550 1153] Predicted:[7 4 7 3]}
row {PC:5898272 Samples:5778 MeanAbsErr:2.524749048113534 ErrHist:[743 453 663 643 712 603 593 514 854] Predicted:[9 6 11 13]}
row {PC:5898288 Samples:5141 MeanAbsErr:2.435518381637814 ErrHist:[614 426 537 573 651 631 525 467 717] Predicted:[8 9 14 4]}
row {PC:5898304 Samples:4896 MeanAbsErr:2.335171568627451 ErrHist:[527 390 530 595 585 617 604 465 583] Predicted:[10 13 12 7]}
row {PC:5898320 Samples:4550 MeanAbsErr:2.280879120879121 ErrHist:[485 334 534 572 561 589 511 447 517] Predicted:[7 7 5 4]}
row {PC:5898336 Samples:4412 MeanAbsErr:2.2688123300090663 ErrHist:[476 324 462 555 563 572 546 440 474] Predicted:[9 5 13 12]}
row {PC:5898352 Samples:4204 MeanAbsErr:2.235490009514748 ErrHist:[451 308 420 533 547 524 573 433 415] Predicted:[9 7 13 6]}`},
		{"msa", "omnetpp", `stats {Accesses:120000 Hits:4252 Misses:115748 Evictions:26794 Writebacks:0 Bypasses:86906 PerCore:[{Accesses:120000 Hits:4252 Misses:115748} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0} {Accesses:0 Hits:0 Misses:0}]}
debug {TrainEvents:2553 SumAbsErr:1478 SumErr:1430 TopKHits:2544 Expiries:108039 Bypasses:86906}
row {PC:4198400 Samples:2553 MeanAbsErr:0.5789267528397963 ErrHist:[2 2 2 3 1113 1415 10 5 1] Predicted:[15 15 15 15]}`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.policy+"/"+tc.scenario, func(t *testing.T) {
			t.Parallel()
			if got := goldenRun(t, tc.policy, scenarios[tc.scenario]); got != tc.want {
				t.Errorf("output drifted from the golden record\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// goldenRun drives a fresh learned policy over the seeded scenario and
// renders its LLC statistics, counters and model rows, one per line.
func goldenRun(t *testing.T, name, scenario string) string {
	t.Helper()
	spec, err := workload.Resolve(scenario)
	if err != nil {
		t.Fatalf("resolve %q: %v", scenario, err)
	}
	tr, err := spec.GenerateE(qualityAccesses, qualitySeed)
	if err != nil {
		t.Fatalf("generate %q: %v", scenario, err)
	}
	p, ok := New(name, qualitySets, qualityWays)
	if !ok {
		t.Fatalf("unknown policy %q", name)
	}
	c, err := cache.New(cache.Config{Name: "llc", Sets: qualitySets, Ways: qualityWays}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr.Accesses {
		c.Access(a.PC, a.Block(), a.Core, a.Kind)
	}
	lines := []string{fmt.Sprintf("stats %+v", c.Stats())}
	var rows []ModelRow
	switch p := p.(type) {
	case *Hawkeye:
		lines = append(lines, fmt.Sprintf("debug %+v", p.Debug()))
	case *Glider:
		samples, pos, neg, skipped := p.Predictor().DebugCounts()
		lines = append(lines, fmt.Sprintf("debug samples=%d pos=%d neg=%d skipped=%d", samples, pos, neg, skipped))
	case *FRD:
		lines = append(lines, fmt.Sprintf("debug %+v", p.Debug()))
		rows = p.TopModelRows(8)
	case *MSA:
		lines = append(lines, fmt.Sprintf("debug %+v", p.Debug()))
		rows = p.TopModelRows(8)
	default:
		t.Fatalf("%q is not a sampled-set learner", name)
	}
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("row %+v", r))
	}
	return strings.Join(lines, "\n")
}
