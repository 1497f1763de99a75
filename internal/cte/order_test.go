package cte

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rvcte/internal/iss"
)

// pathOrderHash hashes the ordered OnPath records (path index, exit code,
// error, output) of a one-worker exploration of src.
func pathOrderHash(t *testing.T, src string) string {
	t.Helper()
	h := sha256.New()
	sess := NewSession(snapshot(t, src), Config{Workers: 1, Budget: Budget{MaxPaths: 1000}})
	sess.OnPath = func(path int, c *iss.Core) {
		fmt.Fprintf(h, "%d|%d|%v|%q\n", path, c.ExitCode, c.Err, c.Output)
	}
	if rep := sess.Run(context.Background()); !rep.Exhausted {
		t.Fatalf("exploration did not exhaust: %v", rep)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorkersOnePathOrder pins the path order of a one-worker run: the
// hashes were recorded from the engine before the exploration loops were
// merged into one worker pool, so any drift in claim or merge order at
// Workers=1 shows up here.
func TestWorkersOnePathOrder(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"counter", counterSrc, "2b856c8e41e500a7a2d73035ba62118cf2262f6cc93bb623c1838ac27f5c0357"},
		{"bitstorm", bitstormSrc, "e00cf9a999bb0b1256c5d71e49d9ee8a04a8583a3e8f8865564be188d25f388e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := pathOrderHash(t, tc.src); got != tc.want {
				t.Errorf("path order hash %s want %s", got, tc.want)
			}
		})
	}
}
