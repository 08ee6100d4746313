package gateway

import (
	"net/http"
	"strconv"
	"testing"

	"glider/internal/server"
)

// validatedSpec mirrors the gateway's normalize-then-hash path for a seed.
func validatedSpec(t *testing.T, seed int64) server.JobSpec {
	t.Helper()
	s := simSpec(seed)
	if err := s.Validate(server.Limits{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// seedOwnedBy scans seeds until one's job hash is owned by node idx.
func seedOwnedBy(t *testing.T, c *cluster, idx int, from int64) int64 {
	t.Helper()
	for seed := from; seed < from+500; seed++ {
		if c.ownerIndex(t, validatedSpec(t, seed).Hash()) == idx {
			return seed
		}
	}
	t.Fatalf("no seed in [%d,%d) owned by node %d", from, from+500, idx)
	return 0
}

// TestChaosForced429FailsOverWithoutDoubleCounting saturates two of three
// nodes. Every job must still succeed — the successor walk reaches the live
// node within the retry budget — and no job may execute more than once
// anywhere in the fleet.
func TestChaosForced429FailsOverWithoutDoubleCounting(t *testing.T) {
	c := newCluster(t, 3, cannedCellExec, nil)
	const liveIdx = 2
	for i, nd := range c.nodes {
		if i != liveIdx {
			nd.force429.Store(true)
		}
	}

	sawFailover := false
	for seed := int64(0); seed < 30; seed++ {
		spec := validatedSpec(t, seed)
		if c.ownerIndex(t, spec.Hash()) != liveIdx {
			sawFailover = true
		}
		status, _, body := postJSON(t, c.ts, "/v1/sim", simBody(seed))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d body %s", seed, status, body)
		}
		if got := c.totalExecs(spec.Hash()); got != 1 {
			t.Fatalf("seed %d executed %d times across fleet, want exactly 1", seed, got)
		}
		if got := c.nodes[liveIdx].execCount(spec.Hash()); got != 1 {
			t.Fatalf("seed %d did not land on the live node", seed)
		}
	}
	if !sawFailover {
		t.Fatal("every key happened to be owned by the live node — test proved nothing")
	}
	if c.counter("gateway.retries") == 0 || c.counter("gateway.failovers") == 0 {
		t.Fatalf("retry counters: retries=%d failovers=%d",
			c.counter("gateway.retries"), c.counter("gateway.failovers"))
	}
	// 429s never reach an executor, so saturated nodes must have run nothing.
	for i, nd := range c.nodes {
		if i == liveIdx {
			continue
		}
		nd.mu.Lock()
		jobs := len(nd.execs)
		nd.mu.Unlock()
		if jobs != 0 {
			t.Fatalf("saturated node b%d executed %d jobs", i, jobs)
		}
	}
}

// TestChaosFleetSaturatedSurfacesRetryAfter forces 429 everywhere: the
// gateway exhausts its budget and relays the saturation — 429 plus a
// Retry-After hint — instead of masking it as a 5xx.
func TestChaosFleetSaturatedSurfacesRetryAfter(t *testing.T) {
	c := newCluster(t, 3, cannedCellExec, nil)
	for _, nd := range c.nodes {
		nd.force429.Store(true)
	}
	status, hdr, body := postJSON(t, c.ts, "/v1/sim", simBody(1))
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet: status %d body %s", status, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("saturated fleet Retry-After = %q", hdr.Get("Retry-After"))
	}
	if c.counter("gateway.rejected.saturated") == 0 {
		t.Fatal("saturation not attributed in metrics")
	}
	if got := c.totalExecs(validatedSpec(t, 1).Hash()); got != 0 {
		t.Fatalf("saturated fleet executed the job %d times", got)
	}

	// Relief: clear the fault and the same job goes straight through.
	for _, nd := range c.nodes {
		nd.force429.Store(false)
	}
	status, _, _ = postJSON(t, c.ts, "/v1/sim", simBody(1))
	if status != http.StatusOK {
		t.Fatalf("after relief: status %d", status)
	}
	if got := c.totalExecs(validatedSpec(t, 1).Hash()); got != 1 {
		t.Fatalf("after relief executed %d times, want 1", got)
	}
}

// TestChaosNodeKillFailsOverAndMarksDown kills a node outright. Jobs it
// owned fail at the transport layer, which marks the node down immediately
// (no poll needed) and fails over to the key's successor — each job still
// executing exactly once.
func TestChaosNodeKillFailsOverAndMarksDown(t *testing.T) {
	c := newCluster(t, 3, cannedCellExec, nil)
	const victim = 1
	seed := seedOwnedBy(t, c, victim, 0)
	c.nodes[victim].Kill()

	status, _, body := postJSON(t, c.ts, "/v1/sim", simBody(seed))
	if status != http.StatusOK {
		t.Fatalf("job owned by killed node: status %d body %s", status, body)
	}
	if got := c.totalExecs(validatedSpec(t, seed).Hash()); got != 1 {
		t.Fatalf("job executed %d times, want 1", got)
	}
	if c.counter("gateway.retries") == 0 {
		t.Fatal("kill produced no retry")
	}
	// Passive markdown: the transport failure alone removed the victim.
	if c.gw.ring.Has(c.nodes[victim].name) {
		t.Fatal("killed node still on the ring")
	}
	gh := c.gw.Health()
	if gh.Healthy != 2 {
		t.Fatalf("health after kill: %+v", gh)
	}

	// Subsequent traffic never touches the corpse: owners are recomputed
	// from the shrunken ring, so first attempts all hit live nodes.
	before := c.counter("gateway.retries")
	for seed := int64(1000); seed < 1020; seed++ {
		if status, _, _ := postJSON(t, c.ts, "/v1/sim", simBody(seed)); status != http.StatusOK {
			t.Fatalf("post-kill seed %d: status %d", seed, status)
		}
	}
	if got := c.counter("gateway.retries"); got != before {
		t.Fatalf("post-kill traffic needed %d extra retries", got-before)
	}
}
