package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"nodevar/internal/faults"
)

// FaultFlags is the fault-injection flag shared by commands that run the
// measurement pipeline: a single -faults spec string that parses into a
// faults.Schedule. The empty spec is the zero schedule — a strict no-op.
type FaultFlags struct {
	Spec string
}

// Register installs the flag on fs.
func (f *FaultFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Spec, "faults", "",
		`fault-injection spec, e.g. "seed=7,drop=0.01,glitch=0.001,nodedrop=0.05" (keys: seed, drop, dropwin, stuck, stucksec, glitch, spike, nanfrac, quant, jitter, nodedrop; empty disables)`)
}

// RegisterFaultFlags installs the fault flag on the default flag set.
func RegisterFaultFlags() *FaultFlags {
	f := &FaultFlags{}
	f.Register(flag.CommandLine)
	return f
}

// Schedule parses the spec. An empty spec yields the zero schedule.
func (f *FaultFlags) Schedule() (faults.Schedule, error) {
	return ParseFaultSpec(f.Spec)
}

// ParseFaultSpec parses a comma- or space-separated key=value fault
// spec into a schedule. Keys match faults.Schedule.String(), so a
// printed non-zero schedule parses back to itself.
func ParseFaultSpec(spec string) (faults.Schedule, error) {
	var s faults.Schedule
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	fields := strings.FieldsFunc(spec, func(r rune) bool {
		return r == ',' || r == ' '
	})
	for _, kv := range fields {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return s, fmt.Errorf("cli: fault spec entry %q is not key=value", kv)
		}
		switch key {
		case "seed":
			u, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return s, fmt.Errorf("cli: fault seed %q: %w", val, err)
			}
			s.Seed = u
		default:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, fmt.Errorf("cli: fault %s value %q: %w", key, val, err)
			}
			switch key {
			case "drop":
				s.SampleDropRate = v
			case "dropwin":
				s.DropWindowSec = v
			case "stuck":
				s.StuckRate = v
			case "stucksec":
				s.StuckSec = v
			case "glitch":
				s.GlitchRate = v
			case "spike":
				s.SpikeFactor = v
			case "nanfrac":
				s.NaNFraction = v
			case "quant":
				s.QuantizeWatts = v
			case "jitter":
				s.ClockJitter = v
			case "nodedrop":
				s.NodeDropRate = v
			default:
				return s, fmt.Errorf("cli: unknown fault spec key %q", key)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}
