GO ?= go

.PHONY: build test race bench-smoke vet ci cover metrics-smoke fuzz-smoke server-smoke gateway-smoke ingest-smoke estimate-smoke ledger-smoke soak

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full test suite under the race detector. The experiment
# harness fans simulations out across goroutines (internal/simrunner), and
# most tests run with t.Parallel(), so this exercises the concurrent paths
# for real. Expect it to take several times longer than `make test`.
race:
	$(GO) test -race ./...

# bench-smoke compiles and runs every package microbenchmark exactly once —
# a fast CI check that the benchmarks themselves still work, with no timing
# claims. Performance numbers come from perfbench: bash perfbench/run.sh.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# cover runs the per-package coverage ratchet: every package must stay at or
# above its floor in coverage.txt. Raise floors with `go run ./cmd/covcheck
# -profile cover.out -update` after an intentional coverage change.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covcheck -profile cover.out -floors coverage.txt

# metrics-smoke proves the observability pipeline end to end: simulate with
# -metrics, then aggregate the JSONL with obsreport.
metrics-smoke:
	$(GO) run ./cmd/glidersim -bench omnetpp -policy glider -accesses 100000 -metrics /tmp/glider-metrics.jsonl -metrics-summary
	$(GO) run ./cmd/obsreport /tmp/glider-metrics.jsonl

# fuzz-smoke gives each fuzz target a short budget on top of the checked-in
# seed corpus (which plain `go test` already replays).
fuzz-smoke:
	$(GO) test ./internal/trace/ -run '^FuzzReadBinary$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^FuzzReadText$$' -fuzz '^FuzzReadText$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^FuzzReadAuto$$' -fuzz '^FuzzReadAuto$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^FuzzReadChampSim$$' -fuzz '^FuzzReadChampSim$$' -fuzztime 10s
	$(GO) test ./internal/trace/ingest/ -run '^FuzzStreamVsOneShot$$' -fuzz '^FuzzStreamVsOneShot$$' -fuzztime 10s
	$(GO) test ./internal/trace/ingest/ -run '^FuzzParseSpec$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s
	$(GO) test ./internal/server/ -run '^FuzzJobSpecDecode$$' -fuzz '^FuzzJobSpecDecode$$' -fuzztime 10s
	$(GO) test ./internal/server/ -run '^FuzzJobHash$$' -fuzz '^FuzzJobHash$$' -fuzztime 10s
	$(GO) test ./internal/gateway/ -run '^FuzzRingChurn$$' -fuzz '^FuzzRingChurn$$' -fuzztime 10s
	$(GO) test ./internal/policy/ -run '^FuzzFRDAccess$$' -fuzz '^FuzzFRDAccess$$' -fuzztime 10s
	$(GO) test ./internal/policy/ -run '^FuzzMSAAccess$$' -fuzz '^FuzzMSAAccess$$' -fuzztime 10s
	$(GO) test ./internal/ledger/ -run '^FuzzCanonicalize$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 10s
	$(GO) test ./internal/ledger/ -run '^FuzzRecordScan$$' -fuzz '^FuzzRecordScan$$' -fuzztime 10s
	$(GO) test ./internal/ledger/ -run '^FuzzProofVerify$$' -fuzz '^FuzzProofVerify$$' -fuzztime 10s

# server-smoke runs the gliderd service layer and its typed client under the
# race detector — the fast (-short) subset, mirroring CI's server-smoke job.
server-smoke:
	$(GO) test -race -count 1 -short ./internal/server/... ./internal/client/...

# gateway-smoke runs the cluster layer under the race detector: the
# consistent-hash gateway (routing, chaos, and differential suites against
# in-process multi-node fleets) plus the open-loop load generator.
gateway-smoke:
	$(GO) test -race -count 1 ./internal/gateway/... ./cmd/loadgen/...

# ingest-smoke runs the streaming-ingestion wall under the race detector:
# the scanner differential suite (incl. the 256 MiB bounded-memory scan),
# the generator property tests, the spec parser, and the scenario-zoo
# differential tests on server and gateway.
ingest-smoke:
	$(GO) test -race -count 1 ./internal/trace/ ./internal/trace/ingest/
	$(GO) test -race -count 1 -run 'Ingest|SpecSpellings|Zoo|CatalogListsSchemes|GatewayCatalogProxiesSchemes' ./internal/server/ ./internal/gateway/ ./internal/experiments/

# estimate-smoke runs the learned proxy simulator's correctness wall under
# the race detector: the surrogate package (training determinism, the
# confidence gate, the bound-coverage regression wall) plus the
# sweep-pruning differential — train a tiny model, prune a sweep with it,
# and demand the frontier matches the exhaustive sweep's exactly.
estimate-smoke:
	$(GO) test -race -count 1 ./internal/estimate/...
	$(GO) test -race -count 1 -run 'TestSweepPruned|TestEstimate' ./internal/experiments/

# ledger-smoke runs the tamper-evidence wall under the race detector: the
# ledger package itself (canonical JSON, Merkle batches, chain links, crash
# recovery, the corpus-backed fuzz seeds), the audit CLI's corruption drill,
# and the cross-layer recording suites (server, gateway fleet, experiments).
# Then it proves the loop outside the test harness: anchor a real zoo run to
# a disk ledger with cmd/experiments and audit the file with cmd/audit.
ledger-smoke:
	$(GO) test -race -count 1 ./internal/ledger/ ./cmd/audit/
	$(GO) test -race -count 1 -run 'Ledger' ./internal/server/ ./internal/gateway/ ./internal/experiments/
	rm -f /tmp/glider-ledger-smoke.ledger
	$(GO) run ./cmd/experiments -quick -accesses 20000 -ledger /tmp/glider-ledger-smoke.ledger zoo
	$(GO) run ./cmd/audit verify -ledger /tmp/glider-ledger-smoke.ledger
	$(GO) run ./cmd/audit root -ledger /tmp/glider-ledger-smoke.ledger

# soak drives sustained concurrent load (real simulations, cache churn,
# mixed sim/predict traffic) through a live server under -race.
soak:
	$(GO) test -race -count 1 -run 'TestSoak' ./internal/server/

ci: vet build test race cover
