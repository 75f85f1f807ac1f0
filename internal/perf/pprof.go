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
// idempotent: defer it, and also call it before any os.Exit, which skips
// deferred calls.
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
	return func() { p.once.Do(p.stop) }, nil
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
