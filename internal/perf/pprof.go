package perf

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Profiles is the -cpuprofile/-memprofile flag pair every CLI shares, so
// the open/flush/close handling cannot drift between binaries.
type Profiles struct {
	cpuPath, memPath *string
	cpuFile          *os.File
	started          bool
	once             sync.Once
}

// ProfileFlags registers -cpuprofile and -memprofile on fs; what names the
// profiled work in the usage text ("the run"). Call Start after fs.Parse.
func ProfileFlags(fs *flag.FlagSet, what string) *Profiles {
	return &Profiles{
		cpuPath: fs.String("cpuprofile", "", "write a pprof CPU profile of "+what+" to this file"),
		memPath: fs.String("memprofile", "", "write a pprof heap profile at exit to this file"),
	}
}

// Start begins the CPU profile if -cpuprofile is set and returns the stop
// func that flushes it and writes the -memprofile heap profile. Stop is
// idempotent: defer it, and leave through p.Exit, p.Fatal or p.Fatalf
// instead of os.Exit or log.Fatal, which skip deferred calls.
func (p *Profiles) Start() (stop func(), err error) {
	if *p.cpuPath != "" {
		if p.cpuFile, err = os.Create(*p.cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(p.cpuFile); err != nil {
			p.cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	p.started = true
	return p.flush, nil
}

// flush runs stop once, if Start succeeded.
func (p *Profiles) flush() {
	if p.started {
		p.once.Do(p.stop)
	}
}

// Exit flushes the profiles if Start succeeded, then exits with code.
func (p *Profiles) Exit(code int) {
	p.flush()
	os.Exit(code)
}

// Fatal is log.Fatal that flushes the profiles before exiting 1.
func (p *Profiles) Fatal(v ...any) {
	log.Output(2, fmt.Sprint(v...))
	p.Exit(1)
}

// Fatalf is log.Fatalf that flushes the profiles before exiting 1.
func (p *Profiles) Fatalf(format string, v ...any) {
	log.Output(2, fmt.Sprintf(format, v...))
	p.Exit(1)
}

func (p *Profiles) stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			log.Printf("cpuprofile: %v", err)
		}
	}
	if *p.memPath != "" {
		if err := writeHeapProfile(*p.memPath); err != nil {
			log.Print(err)
		}
	}
}

// writeHeapProfile runs a GC (so the profile reflects live objects, not
// garbage awaiting collection) and writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
