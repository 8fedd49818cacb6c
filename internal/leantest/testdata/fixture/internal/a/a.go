// Package a declares one case per root rule.
package a

// Widget is reached from main.
type Widget struct{ N int }

// Size is kept: Sizer, an interface of this module, names it.
func (w Widget) Size() int { return w.N }

// String is kept: fmt.Stringer, a standard interface, names it.
func (w Widget) String() string { return "widget" }

// Grow is reported: no one calls it and no interface names it.
func (w Widget) Grow() {}

// Sizer is only an interface name.
type Sizer interface{ Size() int }

// Impl is reached only through the blank assertion below.
type Impl struct{}

// Size is kept by Sizer, as Impl is reached.
func (Impl) Size() int { return 0 }

var _ Sizer = Impl{}

// Unused is reported.
func Unused() {}

// Box is re-exported by the facade.
type Box struct{}

// Open is facade API: its receiver type is re-exported.
func (Box) Open() {}

// Fill is facade API; Rand, which it takes, is not.
func (Box) Fill(r *Rand) {}

// Rand is reached through Fill's parameter.
type Rand struct{}

// Next is reported: reaching Rand does not root its methods.
func (*Rand) Next() uint64 { return 0 }

var counters []string

func register(name string) int {
	counters = append(counters, name)
	return len(counters)
}

var (
	hits   = register("hits")
	misses = register("misses") // reported: registered, never read
)

// Hits reads hits.
func Hits() int { return hits }

// Oracle is kept for the tests of a and b.
func Oracle() int { return oracleHelper() }

// oracleHelper is reached through Oracle.
func oracleHelper() int { return 1 }

// Failure is reached from main.
type Failure struct{ Err error }

func (f *Failure) Error() string { return "failure" }

// Unwrap is reported: errors.Is calls it, but only through unexported
// standard interfaces (errors' own, testing's fuzzCrashError), which do
// not count.
func (f *Failure) Unwrap() error { return f.Err }
