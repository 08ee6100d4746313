package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"
)

// The single-core grid studies are pinned byte for byte by the tests that
// already run them: TestRunZooDefaultScenarios and TestRunLearnedSweep at
// 40000 accesses, TestFig11AndFig12, TestLineage and
// TestSweepPrunedNeverWrongOnFrontier at 60000. Any change to how a grid
// cell is simulated, ordered or reduced shows up there as a digest mismatch.

// rendered is any study result.
type rendered interface{ Render(io.Writer) }

// checkDigests compares the SHA-256 of r's Render text and of its JSON
// encoding with the recorded values.
func checkDigests(t *testing.T, r rendered, text, js string) {
	t.Helper()
	var buf bytes.Buffer
	r.Render(&buf)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != text {
		t.Errorf("Render digest %s, want %s\n%s", got, text, buf.String())
	}
	if got := sha256Hex(b); got != js {
		t.Errorf("JSON digest %s, want %s", got, js)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
