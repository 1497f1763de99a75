package cte

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rvcte/internal/smt"
)

// Frontier export/import. A campaign coordinator (internal/campaign)
// keeps one FIFO frontier of pending inputs per campaign and leases
// them to worker processes, so inputs must cross process boundaries.
// Variable ids are builder-local (they depend on creation order), so
// the wire form is keyed by variable *name* and carries the width,
// letting the importing side mint or resolve the variable with
// smt.Builder.Var — the same name-anchored scheme qcache persistence
// uses for cached models.

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
// (WireInput.Key depends on it).
func ExportInput(b *smt.Builder, in Input) WireInput {
	wi := WireInput{Bound: in.Bound, Gen: in.Gen}
	for id, v := range in.Assignment {
		if id < b.NumVars() {
			wi.Vars = append(wi.Vars, WireVar{Name: b.VarName(id), Width: b.VarWidth(id), Val: v})
		}
	}
	sortVars(wi.Vars)
	return wi
}

// ImportInput resolves a wire input against the local builder, minting
// any variable the local process has not created yet. Every engine
// mints symbolic input bytes only, so a wire variable of any width but
// 8, or one whose name is a local variable of another width, makes the
// input an error: wire input is untrusted, and a variable minted at
// another width would make the guest's own byte of that name a width
// conflict. Every variable is checked before the first is minted, so a
// refused input leaves the builder as it was.
func ImportInput(b *smt.Builder, wi WireInput) (Input, error) {
	for _, wv := range wi.Vars {
		if wv.Width != 8 {
			return Input{}, fmt.Errorf("import input: variable %q has width %d, want 8", wv.Name, wv.Width)
		}
		if id, ok := b.VarID(wv.Name); ok && b.VarWidth(id) != wv.Width {
			return Input{}, fmt.Errorf("import input: variable %q has width %d, local width %d", wv.Name, wv.Width, b.VarWidth(id))
		}
	}
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

// InputKey is the canonical dedup key of a pending input, the key the
// engines dedup children by: "<bound>|{name=value, ...}" over the
// variables b knows, sorted by name. Two processes agree on it for
// semantically identical inputs.
func InputKey(b *smt.Builder, in Input) string {
	return renderKey(in.Bound, namedVars(b, in.Assignment))
}

// Key is the wire-side InputKey: computing it from the wire form yields
// exactly the key the exporting engine used, without needing a builder.
func (wi WireInput) Key() string {
	return renderKey(wi.Bound, wi.Vars)
}

// namedVars returns the variables of in that b knows as name/value
// pairs (Width unset), sorted by name.
func namedVars(b *smt.Builder, in smt.Assignment) []WireVar {
	vars := make([]WireVar, 0, len(in))
	for id, v := range in {
		if name, ok := b.LookupName(id); ok {
			vars = append(vars, WireVar{Name: name, Val: v})
		}
	}
	sortVars(vars)
	return vars
}

func sortVars(vars []WireVar) {
	slices.SortFunc(vars, func(x, y WireVar) int { return strings.Compare(x.Name, y.Name) })
}

// renderKey is the one rendering of the canonical input key,
// "<bound>|" followed by writeVars over vars (sorted by name).
func renderKey(bound int, vars []WireVar) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(bound))
	sb.WriteByte('|')
	writeVars(&sb, vars)
	return sb.String()
}

// writeVars appends "{name=value, ...}" for vars in order; values are
// decimal.
func writeVars(sb *strings.Builder, vars []WireVar) {
	var num [20]byte
	sb.WriteByte('{')
	for i, v := range vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.Name)
		sb.WriteByte('=')
		sb.Write(strconv.AppendUint(num[:0], v.Val, 10))
	}
	sb.WriteByte('}')
}
