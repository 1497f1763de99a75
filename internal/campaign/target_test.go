package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"rvcte/internal/findfix"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

// TestTargetBuildsOneGuest: a campaign worker, which receives its Spec
// as JSON, and a find-fix stage, which builds its target with the
// stage's fixed-bug mask as findfix.Local does, build one guest for
// one target: the same ELF bytes, protocol config and detector set.
func TestTargetBuildsOneGuest(t *testing.T) {
	for _, tc := range []struct {
		spec   Spec
		target findfix.Target
		fixed  uint
	}{
		{
			Spec{Prog: "tcpip", FixList: "1,2", PktMax: 48},
			findfix.Target{Prog: "tcpip", PktMax: 48}, 0b11,
		},
		{
			Spec{Prog: "tcpip-session", Pkts: 2, PktCaps: []int{16, 24}, Detectors: []string{"all"}},
			findfix.Target{Prog: "tcpip-session", Pkts: 2, PktCaps: []int{16, 24}, Detectors: []string{"all"}}, 0,
		},
		{Spec{Prog: "storm-s"}, findfix.Target{Prog: "storm-s"}, 0},
	} {
		t.Run(tc.spec.Prog, func(t *testing.T) {
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var wire Spec
			if err := json.Unmarshal(data, &wire); err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(wire)
			if err != nil {
				t.Fatal(err)
			}
			g, err := tc.target.WithFixed(tc.fixed).Build(smt.NewBuilder())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(relf.Write(r.built.ELF), relf.Write(g.ELF)) {
				t.Error("ELF images differ")
			}
			if !reflect.DeepEqual(r.built.Proto, g.Proto) {
				t.Errorf("protocol config %+v, stage %+v", r.built.Proto, g.Proto)
			}
			if a, b := r.built.Core.DetectorKinds(), g.Core.DetectorKinds(); !slices.Equal(a, b) {
				t.Errorf("detectors %v, stage %v", a, b)
			}
		})
	}
}
