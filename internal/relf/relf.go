// Package relf reads and writes minimal ELF32 files for RISC-V (EM_RISCV,
// little-endian). The paper's flow compiles software plus the CTE
// SW-library into a RISC-V ELF, loads it into the VP memory and resolves
// peripheral entry points by ELF symbol name (§3.1.1, §3.2.2); this
// package provides exactly that: one loadable segment (plus implicit BSS)
// and a symbol table.
package relf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// File is a loaded or to-be-written ELF image.
type File struct {
	Entry   uint32
	Addr    uint32 // load address of Data
	Data    []byte
	MemSize uint32 // >= len(Data); excess is zero-initialized (BSS)
	Symbols map[string]uint32
}

// Symbol looks up a symbol, returning its address and presence.
func (f *File) Symbol(name string) (uint32, bool) {
	v, ok := f.Symbols[name]
	return v, ok
}

const (
	ehSize     = 52
	phEntSize  = 32
	shEntSize  = 40
	symEntSize = 16

	elfMagic   = "\x7fELF"
	emRISCV    = 243
	ptLoad     = 1
	shtSymtab  = 2
	shtStrtab  = 3
	shtNull    = 0
	shtProgbit = 1
)

// Write serializes f as a relocatable-free executable ELF32 image.
func Write(f *File) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian

	// Layout: ehdr | phdr | data | symtab | strtab | shstrtab | shdrs
	dataOff := uint32(ehSize + phEntSize)

	names := make([]string, 0, len(f.Symbols))
	for n := range f.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)

	var strtab bytes.Buffer
	strtab.WriteByte(0)
	var symtab bytes.Buffer
	// Null symbol entry.
	symtab.Write(make([]byte, symEntSize))
	for _, n := range names {
		nameOff := uint32(strtab.Len())
		strtab.WriteString(n)
		strtab.WriteByte(0)
		var ent [symEntSize]byte
		le.PutUint32(ent[0:], nameOff)
		le.PutUint32(ent[4:], f.Symbols[n]) // st_value
		le.PutUint32(ent[8:], 0)            // st_size
		ent[12] = 0x10                      // STB_GLOBAL, STT_NOTYPE
		le.PutUint16(ent[14:], 1)           // st_shndx: .text
		symtab.Write(ent[:])
	}

	symtabOff := dataOff + uint32(len(f.Data))
	strtabOff := symtabOff + uint32(symtab.Len())
	shstrtab := []byte("\x00.text\x00.symtab\x00.strtab\x00.shstrtab\x00")
	shstrtabOff := strtabOff + uint32(strtab.Len())
	shOff := shstrtabOff + uint32(len(shstrtab))

	// ELF header.
	var eh [ehSize]byte
	copy(eh[0:], elfMagic)
	eh[4] = 1                      // ELFCLASS32
	eh[5] = 1                      // ELFDATA2LSB
	eh[6] = 1                      // EV_CURRENT
	le.PutUint16(eh[16:], 2)       // ET_EXEC
	le.PutUint16(eh[18:], emRISCV) // e_machine
	le.PutUint32(eh[20:], 1)       // e_version
	le.PutUint32(eh[24:], f.Entry)
	le.PutUint32(eh[28:], ehSize) // e_phoff
	le.PutUint32(eh[32:], shOff)  // e_shoff
	le.PutUint32(eh[36:], 0)      // e_flags
	le.PutUint16(eh[40:], ehSize)
	le.PutUint16(eh[42:], phEntSize)
	le.PutUint16(eh[44:], 1) // e_phnum
	le.PutUint16(eh[46:], shEntSize)
	le.PutUint16(eh[48:], 5) // e_shnum
	le.PutUint16(eh[50:], 4) // e_shstrndx
	buf.Write(eh[:])

	// Program header.
	var ph [phEntSize]byte
	le.PutUint32(ph[0:], ptLoad)
	le.PutUint32(ph[4:], dataOff)              // p_offset
	le.PutUint32(ph[8:], f.Addr)               // p_vaddr
	le.PutUint32(ph[12:], f.Addr)              // p_paddr
	le.PutUint32(ph[16:], uint32(len(f.Data))) // p_filesz
	memsz := f.MemSize
	if memsz < uint32(len(f.Data)) {
		memsz = uint32(len(f.Data))
	}
	le.PutUint32(ph[20:], memsz) // p_memsz
	le.PutUint32(ph[24:], 7)     // rwx
	le.PutUint32(ph[28:], 4)     // align
	buf.Write(ph[:])

	buf.Write(f.Data)
	buf.Write(symtab.Bytes())
	buf.Write(strtab.Bytes())
	buf.Write(shstrtab)

	// Section headers.
	sh := func(nameOff, typ, flags, addr, off, size, link, info, align, entsize uint32) {
		var e [shEntSize]byte
		le.PutUint32(e[0:], nameOff)
		le.PutUint32(e[4:], typ)
		le.PutUint32(e[8:], flags)
		le.PutUint32(e[12:], addr)
		le.PutUint32(e[16:], off)
		le.PutUint32(e[20:], size)
		le.PutUint32(e[24:], link)
		le.PutUint32(e[28:], info)
		le.PutUint32(e[32:], align)
		le.PutUint32(e[36:], entsize)
		buf.Write(e[:])
	}
	sh(0, shtNull, 0, 0, 0, 0, 0, 0, 0, 0)
	sh(1, shtProgbit, 0x7, f.Addr, dataOff, uint32(len(f.Data)), 0, 0, 4, 0)     // .text
	sh(7, shtSymtab, 0, 0, symtabOff, uint32(symtab.Len()), 3, 1, 4, symEntSize) // .symtab
	sh(15, shtStrtab, 0, 0, strtabOff, uint32(strtab.Len()), 0, 0, 1, 0)         // .strtab
	sh(23, shtStrtab, 0, 0, shstrtabOff, uint32(len(shstrtab)), 0, 0, 1, 0)      // .shstrtab
	return buf.Bytes()
}

// tableEntry returns entry i of the header table at off whose entries are
// size bytes, or nil when the entry does not lie inside data.
func tableEntry(data []byte, off, i, size uint32) []byte {
	start := uint64(off) + uint64(i)*uint64(size)
	if start+uint64(size) > uint64(len(data)) {
		return nil
	}
	return data[start : start+uint64(size)]
}

// Load parses an ELF produced by Write (or any ELF32 RISC-V executable
// with a single PT_LOAD segment and a symtab). A header table entry
// outside data, or a segment whose memory size is below its file size,
// is an error.
func Load(data []byte) (*File, error) {
	le := binary.LittleEndian
	if len(data) < ehSize || string(data[:4]) != elfMagic {
		return nil, fmt.Errorf("relf: not an ELF file")
	}
	if data[4] != 1 || data[5] != 1 {
		return nil, fmt.Errorf("relf: not a little-endian ELF32")
	}
	if m := le.Uint16(data[18:]); m != emRISCV {
		return nil, fmt.Errorf("relf: machine %d is not RISC-V", m)
	}
	f := &File{Entry: le.Uint32(data[24:]), Symbols: map[string]uint32{}}

	phoff := le.Uint32(data[28:])
	phnum := le.Uint16(data[44:])
	loads := 0
	for i := range uint32(phnum) {
		p := tableEntry(data, phoff, i, phEntSize)
		if p == nil {
			return nil, fmt.Errorf("relf: program header %d out of bounds", i)
		}
		if le.Uint32(p[0:]) != ptLoad {
			continue
		}
		loads++
		off := le.Uint32(p[4:])
		filesz := le.Uint32(p[16:])
		if uint64(off)+uint64(filesz) > uint64(len(data)) {
			return nil, fmt.Errorf("relf: segment out of bounds")
		}
		f.Addr = le.Uint32(p[8:])
		f.Data = append([]byte(nil), data[off:off+filesz]...)
		f.MemSize = le.Uint32(p[20:])
		if f.MemSize < filesz {
			return nil, fmt.Errorf("relf: segment memory size %d below file size %d", f.MemSize, filesz)
		}
	}
	if loads != 1 {
		return nil, fmt.Errorf("relf: expected exactly 1 PT_LOAD segment, found %d", loads)
	}

	shoff := le.Uint32(data[32:])
	shnum := le.Uint16(data[48:])
	var symOff, symSize, strOff, strSize uint32
	for i := range uint32(shnum) {
		s := tableEntry(data, shoff, i, shEntSize)
		if s == nil {
			return nil, fmt.Errorf("relf: section header %d out of bounds", i)
		}
		typ := le.Uint32(s[4:])
		if typ == shtSymtab {
			symOff = le.Uint32(s[16:])
			symSize = le.Uint32(s[20:])
			link := le.Uint32(s[24:])
			ls := tableEntry(data, shoff, link, shEntSize)
			if ls == nil {
				return nil, fmt.Errorf("relf: symtab string table %d out of bounds", link)
			}
			strOff = le.Uint32(ls[16:])
			strSize = le.Uint32(ls[20:])
		}
	}
	if symOff != 0 {
		if uint64(symOff)+uint64(symSize) > uint64(len(data)) ||
			uint64(strOff)+uint64(strSize) > uint64(len(data)) {
			return nil, fmt.Errorf("relf: symtab out of bounds")
		}
		strs := data[strOff : strOff+strSize]
		for o := uint32(0); o+symEntSize <= symSize; o += symEntSize {
			e := data[symOff+o:]
			nameOff := le.Uint32(e[0:])
			if nameOff == 0 || nameOff >= strSize {
				continue
			}
			end := bytes.IndexByte(strs[nameOff:], 0)
			if end < 0 {
				continue
			}
			name := string(strs[nameOff : nameOff+uint32(end)])
			f.Symbols[name] = le.Uint32(e[4:])
		}
	}
	return f, nil
}
