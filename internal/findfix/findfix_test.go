package findfix

import (
	"errors"
	"strings"
	"testing"
)

// script returns a stage that reports the given bugs in order (0 =
// unclassified finding) and is clean after them.
func script(bugs ...int) Stage {
	return func(i int, fixed uint) (Row, error) {
		if i >= len(bugs) {
			return Row{Stopped: "exhausted"}, nil
		}
		return Row{Bug: bugs[i], Kind: "heap buffer overflow (read)", Func: "f"}, nil
	}
}

func TestRunCleanAtStageZero(t *testing.T) {
	rows, err := Run(0b101, 4, script())
	if err != nil || len(rows) != 1 || !rows[0].Clean() || rows[0].Fixed != 0b101 {
		t.Fatalf("rows %+v err %v: want one clean row with the starting mask", rows, err)
	}
}

func TestRunSixStages(t *testing.T) {
	var seen []uint
	stage := script(1, 2, 4, 3, 6, 5)
	rows, err := Run(0, 8, func(i int, fixed uint) (Row, error) {
		seen = append(seen, fixed)
		return stage(i, fixed)
	})
	if err != nil {
		t.Fatal(err)
	}
	masks := []uint{0, 0b1, 0b11, 0b1011, 0b1111, 0b101111, 0b111111}
	if len(rows) != len(masks) || !rows[6].Clean() {
		t.Fatalf("rows %+v: want six bugs then a clean row", rows)
	}
	for i, r := range rows {
		if r.Stage != i || r.Fixed != masks[i] || seen[i] != masks[i] {
			t.Errorf("row %d: stage %d mask %06b (stage saw %06b), want mask %06b", i, r.Stage, r.Fixed, seen[i], masks[i])
		}
	}
}

func TestRunFailures(t *testing.T) {
	errStage := errors.New("stage failed")
	for _, tc := range []struct {
		name  string
		fixed uint
		max   int
		stage Stage
		rows  int
		msg   string
	}{
		{"unclassified", 0, 8, script(1, 0), 2, "not a seeded bug"},
		{"found again", 0, 8, script(1, 2, 1), 3, "bug 1 found again"},
		{"found again from the starting mask", 0b10, 8, script(2), 1, "bug 2 found again"},
		{"no convergence", 0, 3, script(1, 2, 3, 4), 3, "no clean stage within 3 stages"},
		{"stage error", 0, 8, func(i int, _ uint) (Row, error) {
			if i == 1 {
				return Row{}, errStage
			}
			return Row{Bug: 1, Kind: "k"}, nil
		}, 1, "stage 1: stage failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := Run(tc.fixed, tc.max, tc.stage)
			if err == nil || !strings.Contains(err.Error(), tc.msg) || len(rows) != tc.rows {
				t.Fatalf("%d rows, err %v: want %d rows and an error containing %q", len(rows), err, tc.rows, tc.msg)
			}
			if tc.name == "stage error" && !errors.Is(err, errStage) {
				t.Errorf("err %v does not wrap the stage error", err)
			}
		})
	}
}
