package cte

import (
	"fmt"
	"sort"

	"rvcte/internal/smt"
)

// Frontier export/import. A campaign coordinator (internal/campaign)
// shards the pending-input frontier across worker processes, so inputs
// must cross process boundaries. Variable ids are builder-local (they
// depend on creation order), so the wire form is keyed by variable
// *name* and carries the width, letting the importing side mint or
// resolve the variable with smt.Builder.Var — the same name-anchored
// scheme qcache persistence uses for cached models.

// WireVar is one named symbolic assignment in process-portable form.
type WireVar struct {
	Name  string `json:"n"`
	Width uint8  `json:"w"`
	Val   uint64 `json:"v"`
}

// WireInput is the process-portable form of one frontier Input: the
// solved variable assignment (by name), the generational TC bound and
// the generation. Fork checkpoints never travel — a live ISS core is
// process-local — so an imported input restarts from the snapshot.
type WireInput struct {
	Vars  []WireVar `json:"vars,omitempty"`
	Bound int       `json:"bound,omitempty"`
	Gen   int       `json:"gen,omitempty"`
}

// ExportInput serializes in for transfer to another process. Variables
// are sorted by name, so the wire form of a given input is canonical
// (WireKey depends on it).
func ExportInput(b *smt.Builder, in Input) WireInput {
	wi := WireInput{Bound: in.Bound, Gen: in.Gen}
	for id, v := range in.Assignment {
		if id < b.NumVars() {
			wi.Vars = append(wi.Vars, WireVar{Name: b.VarName(id), Width: b.VarWidth(id), Val: v})
		}
	}
	sort.Slice(wi.Vars, func(i, j int) bool { return wi.Vars[i].Name < wi.Vars[j].Name })
	return wi
}

// ImportInput resolves a wire input against the local builder, minting
// any variable the local process has not created yet. A wire variable
// whose width is outside 1..64, or contradicts the local variable of
// that name, makes the input an error: wire input is untrusted.
func ImportInput(b *smt.Builder, wi WireInput) (Input, error) {
	in := Input{Assignment: smt.Assignment{}, Bound: wi.Bound, Gen: wi.Gen}
	for _, wv := range wi.Vars {
		v, err := b.DeclareVar(wv.Width, wv.Name)
		if err != nil {
			return Input{}, fmt.Errorf("import input: %w", err)
		}
		in.Assignment[int(v.Val)] = wv.Val
	}
	return in, nil
}

// InputKey is the canonical dedup key of a pending input — the same
// (bound, sorted name=value assignment) key the engines dedup children
// by. Two processes agree on it for semantically identical inputs.
func InputKey(b *smt.Builder, in Input) string {
	return childKey(b, in)
}

// Key is the wire-side InputKey: computing it from the wire form yields
// exactly the key the exporting engine used, without needing a builder.
func (wi WireInput) Key() string {
	s := fmt.Sprintf("%d|{", wi.Bound)
	for i, wv := range wi.Vars {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", wv.Name, wv.Val)
	}
	return s + "}"
}
