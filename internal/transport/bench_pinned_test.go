package transport_test

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/perf/pinned"
)

// The benchmark body lives in internal/perf/pinned so `hermes-bench -perf`
// can run the exact same code and append the result to the perf ledger.
func BenchmarkAckPath(b *testing.B) { pinned.AckPath(b) }
