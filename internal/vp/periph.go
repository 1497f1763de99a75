package vp

import (
	"encoding/binary"

	"rvcte/internal/sysc"
)

// Native (SystemC-style) peripheral models for the concrete VP baseline.
// Register layouts match the software models in internal/guest, so the
// same guest binaries drive either integration style.

// PLIC is the native platform-level interrupt controller.
type PLIC struct {
	cpu      *CPU
	pending  uint32
	enable   uint32
	priority [32]uint32
}

// NewPLIC creates and maps a PLIC-compatible target.
func NewPLIC(cpu *CPU) *PLIC {
	p := &PLIC{cpu: cpu, enable: 0xffffffff}
	for i := range p.priority {
		p.priority[i] = 1
	}
	p.priority[0] = 0
	return p
}

// Raise asserts interrupt source src.
func (p *PLIC) Raise(src uint32) {
	if src == 0 || src >= 32 {
		return
	}
	p.pending |= 1 << src
	p.update()
}

func (p *PLIC) update() {
	p.cpu.SetIRQ(11, p.pending&p.enable != 0)
}

func (p *PLIC) claim() uint32 {
	var best, bestPrio uint32
	for i := uint32(1); i < 32; i++ {
		if p.pending&(1<<i) != 0 && p.enable&(1<<i) != 0 && p.priority[i] > bestPrio {
			best, bestPrio = i, p.priority[i]
		}
	}
	if best != 0 {
		p.pending &^= 1 << best
		p.update()
	}
	return best
}

// BTransport implements sysc.Target.
func (p *PLIC) BTransport(addr uint32, data []byte, isRead bool) {
	le := binary.LittleEndian
	switch {
	case addr == 0x0:
		if isRead {
			le.PutUint32(data, p.claim())
		}
	case addr == 0x4:
		if isRead {
			le.PutUint32(data, p.enable)
		} else {
			p.enable = le.Uint32(data)
			p.update()
		}
	case addr == 0x8:
		if isRead {
			le.PutUint32(data, p.pending)
		}
	case addr >= 0x10 && addr < 0x10+32*4:
		idx := (addr - 0x10) / 4
		if isRead {
			le.PutUint32(data, p.priority[idx])
		} else {
			p.priority[idx] = le.Uint32(data)
		}
	}
}

// CLINT is the native core-local interruptor (32-bit mtime/mtimecmp).
type CLINT struct {
	cpu      *CPU
	mtimecmp uint32
}

// NewCLINT creates the CLINT model.
func NewCLINT(cpu *CPU) *CLINT { return &CLINT{cpu: cpu, mtimecmp: 0xffffffff} }

func (cl *CLINT) check() {
	now := uint32(cl.cpu.Cycles)
	if now >= cl.mtimecmp {
		cl.cpu.SetIRQ(7, true)
		return
	}
	cl.cpu.Kernel.Schedule(sysc.Time(cl.mtimecmp-now), cl.check)
}

// BTransport implements sysc.Target.
func (cl *CLINT) BTransport(addr uint32, data []byte, isRead bool) {
	le := binary.LittleEndian
	switch addr {
	case 0x4000: // mtimecmp
		if isRead {
			le.PutUint32(data, cl.mtimecmp)
		} else {
			cl.mtimecmp = le.Uint32(data)
			cl.cpu.SetIRQ(7, false)
			cl.check()
		}
	case 0xbff8: // mtime
		if isRead {
			le.PutUint32(data, uint32(cl.cpu.Cycles))
		}
	}
}

// Sensor is the native sensor peripheral (the SystemC original of the
// paper's Fig. 2 software model): a thread-like process periodically
// generates data and raises an interrupt through the PLIC.
type Sensor struct {
	cpu    *CPU
	plic   *PLIC
	scaler uint32
	filter uint32
	data   uint32
	lcg    uint32
	minVal uint32
	maxVal uint32
	irq    uint32
	armed  bool
}

// NewSensor creates the sensor model (sensor range and IRQ source match
// the software model defaults).
func NewSensor(cpu *CPU, plic *PLIC) *Sensor {
	return &Sensor{cpu: cpu, plic: plic, scaler: 25, lcg: 77777, minVal: 16, maxVal: 64, irq: 2}
}

func (s *Sensor) update() {
	s.lcg = s.lcg*1103515245 + 12345
	s.data = s.minVal + (s.lcg>>8)%(s.maxVal-s.minVal+1)
	s.data -= s.filter
	s.plic.Raise(s.irq)
	s.cpu.Kernel.Schedule(sysc.Time(s.scaler*1000), s.update)
}

// BTransport implements sysc.Target (register map: 0x0 scaler, 0x4
// filter, 0x8 data).
func (s *Sensor) BTransport(addr uint32, data []byte, isRead bool) {
	le := binary.LittleEndian
	switch addr {
	case 0x0:
		if isRead {
			le.PutUint32(data, s.scaler)
		} else {
			s.scaler = le.Uint32(data)
			if !s.armed {
				s.armed = true
				s.cpu.Kernel.Schedule(sysc.Time(s.scaler*1000), s.update)
			}
		}
	case 0x4:
		if isRead {
			le.PutUint32(data, s.filter)
		} else {
			s.filter = le.Uint32(data)
			if s.filter >= s.minVal {
				s.filter = s.minVal + 1 // same seeded bug as the SW model
			}
		}
	case 0x8:
		if isRead {
			le.PutUint32(data, s.data)
		} else {
			s.data = le.Uint32(data)
		}
	}
}

// Standard base addresses (mirroring the guest package's address map).
const (
	SensorBase = 0x10000000
	PLICBase   = 0x10010000
	CLINTBase  = 0x10020000
	PeriphSize = 0x10000
)

// AttachStandardPeripherals maps the sensor + PLIC + CLINT set at the
// standard addresses and returns them.
func AttachStandardPeripherals(cpu *CPU) (*Sensor, *PLIC, *CLINT) {
	plic := NewPLIC(cpu)
	clint := NewCLINT(cpu)
	sensor := NewSensor(cpu, plic)
	cpu.Bus.Map("sensor", SensorBase, PeriphSize, sensor)
	cpu.Bus.Map("plic", PLICBase, PeriphSize, plic)
	cpu.Bus.Map("clint", CLINTBase, PeriphSize, clint)
	return sensor, plic, clint
}
