package perf

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestFatalFlushesProfiles re-runs the test binary as a child that starts
// both profiles and dies through Fatalf, as a CLI error exit does: the child
// must exit 1 with its message logged and leave both profiles readable.
func TestFatalFlushesProfiles(t *testing.T) {
	if dir := os.Getenv("PERF_FATAL_CHILD_DIR"); dir != "" {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		prof := ProfileFlags(fs, "the test")
		if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "cpu.prof"),
			"-memprofile", filepath.Join(dir, "mem.prof")}); err != nil {
			t.Fatal(err)
		}
		stop, err := prof.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer stop() // skipped by the exit, as in the CLIs
		prof.Fatalf("fatal: %s", "boom")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalFlushesProfiles$")
	cmd.Env = append(os.Environ(), "PERF_FATAL_CHILD_DIR="+dir)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("child exit: %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "fatal: boom") {
		t.Fatalf("child output lacks the fatal message:\n%s", out)
	}
	for _, name := range []string{"cpu.prof", "mem.prof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s: profile missing or empty after Fatalf (%v)", name, err)
		}
	}
}
