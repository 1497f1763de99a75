package findfix

import (
	"fmt"
	"strconv"
	"strings"

	"rvcte/internal/cte"
	"rvcte/internal/guest"
	"rvcte/internal/iss"
	"rvcte/internal/relf"
	"rvcte/internal/smt"
)

// Target names one guest: a built-in program (cmd/cte's -prog names),
// its build parameters and detector set. cmd/cte, campaign workers and
// Local stages all build what they run from one, bit-identically.
type Target struct {
	Prog string
	Fix  string // seeded bugs to compile out: "1,2" (1-6 for tcpip, 7-9 for tcpip-session)
	// PktMax bounds tcpip's symbolic packet size (0 = program default);
	// tcpip-session caps every packet at it when PktCaps is empty.
	PktMax    int
	Pkts      int      // tcpip-session: depth in packets (0 = program default)
	PktCaps   []int    // tcpip-session: per-packet size caps; the last repeats
	Detectors []string // iss detector kinds or "all" (empty = heap guard alone)
}

// Built is a built Target. Proto wires a stateful guest's
// protocol-state byte into the engines (zero for a single-packet one).
type Built struct {
	Core  *iss.Core // boot snapshot, with the target's detector set
	ELF   *relf.File
	Proto cte.ProtocolConfig
}

// program resolves the target to a program; unknown names and fix
// entries outside the program's bugs are errors.
func (t Target) program() (guest.Program, error) {
	switch t.Prog {
	case "sensor", "sensor-fixed":
		return guest.SensorProgram(t.Prog == "sensor-fixed"), nil
	case "tcpip":
		fixed, err := guest.ParseFixList(t.Fix, 1, 6)
		return guest.TCPIPProgram(fixed, t.PktMax), err
	case "tcpip-session":
		fixed, err := guest.ParseFixList(t.Fix, 7, 9)
		caps := t.PktCaps
		if len(caps) == 0 && t.PktMax > 0 {
			caps = []int{t.PktMax}
		}
		return guest.TCPIPSessionProgram(fixed, caps, t.Pkts), err
	case "freertos-sensor":
		return guest.FreeRTOSSensorProgram(true, 2), nil
	}
	if p, ok := guest.BenchProgram(t.Prog); ok {
		return p, nil
	}
	return guest.Program{}, fmt.Errorf("unknown program %q", t.Prog)
}

// Check validates the target without compiling the guest: a known
// program, a fix list in its bug range and known detectors.
func (t Target) Check() error {
	if _, err := t.program(); err != nil {
		return err
	}
	return iss.CheckDetectors(t.Detectors)
}

// Build compiles the target on b and boots its core.
func (t Target) Build(b *smt.Builder) (Built, error) {
	p, err := t.program()
	if err != nil {
		return Built{}, err
	}
	var g Built
	if g.Core, g.ELF, err = guest.NewCore(b, p); err != nil {
		return Built{}, err
	}
	if err := g.Core.AttachDetectorSet(t.Detectors); err != nil {
		return Built{}, err
	}
	if p.Proto.StateSym != "" {
		addr, ok := g.ELF.Symbol(p.Proto.StateSym)
		if !ok {
			return Built{}, fmt.Errorf("%s: no protocol-state symbol %q", p.Name, p.Proto.StateSym)
		}
		g.Proto = cte.ProtocolConfig{Packets: p.Proto.Pkts, PktMax: p.Proto.Caps, StateAddr: addr, States: p.Proto.States}
	}
	return g, nil
}

// WithFixed returns the target with the bugs of the fixed-bug mask as
// its fix list.
func (t Target) WithFixed(fixed uint) Target {
	var bugs []string
	for bug := 1; fixed>>(bug-1) != 0; bug++ {
		if fixed&(1<<(bug-1)) != 0 {
			bugs = append(bugs, strconv.Itoa(bug))
		}
	}
	t.Fix = strings.Join(bugs, ",")
	return t
}

// String renders the target: the program, the packet guests' build
// parameters, the detectors ("tcpip-session-p0-n2-caps16_24-detall").
func (t Target) String() string {
	s := t.Prog
	if t.Prog == "tcpip" || t.Prog == "tcpip-session" {
		s += fmt.Sprintf("-p%d", t.PktMax)
		if t.Pkts > 0 {
			s += fmt.Sprintf("-n%d", t.Pkts)
		}
		if len(t.PktCaps) > 0 {
			s += "-caps" + strings.ReplaceAll(strings.Trim(fmt.Sprint(t.PktCaps), "[]"), " ", "_")
		}
		if t.Fix != "" {
			s += "-fix" + strings.ReplaceAll(t.Fix, ",", "_")
		}
	}
	if len(t.Detectors) > 0 {
		s += "-det" + strings.Join(t.Detectors, "_")
	}
	return s
}
