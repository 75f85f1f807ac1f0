package perf

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsStopWritesBoth: the stop func flushes the CPU profile and
// writes the heap profile, and a second call (a deferred stop after an
// explicit one on an exit path) is a no-op.
func TestProfileFlagsStopWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	prof := ProfileFlags(fs, "the test")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := prof.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s: profile missing or empty (%v)", path, err)
		}
	}
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Fatalf("second stop rewrote the heap profile (stat err %v)", err)
	}
}

func TestProfileFlagsUnset(t *testing.T) {
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	prof := ProfileFlags(fs, "the test")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := prof.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
