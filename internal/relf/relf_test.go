package relf

import (
	"bytes"
	"encoding/binary"
	"maps"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	in := &File{
		Entry:   0x80000000,
		Addr:    0x80000000,
		Data:    []byte{0x13, 0, 0, 0, 0x73, 0, 0, 0},
		MemSize: 64,
		Symbols: map[string]uint32{
			"_start":            0x80000000,
			"sensor_transport":  0x80000004,
			"cte_transport_buf": 0x80000100,
		},
	}
	blob := Write(in)
	out, err := Load(blob)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if out.Entry != in.Entry || out.Addr != in.Addr || out.MemSize != in.MemSize {
		t.Errorf("header mismatch: %+v", out)
	}
	if string(out.Data) != string(in.Data) {
		t.Error("segment data mismatch")
	}
	for name, addr := range in.Symbols {
		got, ok := out.Symbol(name)
		if !ok || got != addr {
			t.Errorf("symbol %s: got %#x,%v want %#x", name, got, ok, addr)
		}
	}
	if _, ok := out.Symbol("missing"); ok {
		t.Error("missing symbol should not resolve")
	}
}

func TestRoundTripNoSymbols(t *testing.T) {
	in := &File{Entry: 0, Addr: 0x1000, Data: []byte{1, 2, 3}, MemSize: 3}
	out, err := Load(Write(in))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(out.Symbols) != 0 {
		t.Errorf("expected no symbols, got %v", out.Symbols)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not an elf"),
		[]byte("\x7fELF and then garbage that is long enough to pass the size check.............."),
	}
	for i, blob := range cases {
		if _, err := Load(blob); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Corrupt one field of a valid file at a time.
	le := binary.LittleEndian
	for _, c := range []struct {
		name    string
		corrupt func(b []byte)
	}{
		{"machine", func(b []byte) { b[18] = 0x3e }}, // EM_X86_64
		{"phoff", func(b []byte) { le.PutUint32(b[28:], uint32(len(b))-8) }},
		{"phnum", func(b []byte) { le.PutUint16(b[44:], 0xffff) }},
		{"shoff", func(b []byte) { le.PutUint32(b[32:], 0xfffffff0) }},
		{"shnum", func(b []byte) { le.PutUint16(b[48:], 0xffff) }},
		{"symtab link", func(b []byte) { le.PutUint32(b[le.Uint32(b[32:])+2*shEntSize+24:], 0x10000000) }},
		{"memsz", func(b []byte) { le.PutUint32(b[ehSize+20:], 0) }},
	} {
		blob := Write(&File{Data: []byte{1}, MemSize: 1, Symbols: map[string]uint32{"a": 1}})
		c.corrupt(blob)
		if _, err := Load(blob); err == nil {
			t.Errorf("corrupt %s must fail", c.name)
		}
	}
}

// FuzzLoad: Load never panics, and a file it accepts round-trips
// through Write unchanged.
func FuzzLoad(f *testing.F) {
	for _, in := range []*File{
		{Data: []byte{1}, MemSize: 1},
		{Entry: 0x80000000, Addr: 0x80000000, Data: []byte{0x13, 0, 0, 0}, MemSize: 64,
			Symbols: map[string]uint32{"_start": 0x80000000, "buf": 0x80000020}},
	} {
		f.Add(Write(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := Load(data)
		if err != nil {
			return
		}
		f2, err := Load(Write(f1))
		if err != nil {
			t.Fatalf("reload of an accepted file: %v", err)
		}
		if f1.Entry != f2.Entry || f1.Addr != f2.Addr || f1.MemSize != f2.MemSize ||
			!bytes.Equal(f1.Data, f2.Data) || !maps.Equal(f1.Symbols, f2.Symbols) {
			t.Fatalf("round trip changed the file:\n%+v\n%+v", f1, f2)
		}
	})
}

func TestBssViaMemSize(t *testing.T) {
	in := &File{Addr: 0x2000, Data: make([]byte, 16), MemSize: 4096}
	out, err := Load(Write(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.MemSize != 4096 || len(out.Data) != 16 {
		t.Errorf("memsz %d filesz %d", out.MemSize, len(out.Data))
	}
}
