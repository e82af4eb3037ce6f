package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The flag contract: the binary is built once and driven as a user would. A
// flag no run can use exits 2 with the flag named, before any training and
// without a Go panic (which also exits 2).

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "trainsim-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "trainsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestUnusableFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mode", "tp"}, "-mode"},
		{[]string{"-mode", "dp", "-method", "sparsify"}, "-method"},
		{[]string{"-mode", "pp", "-method", "onebit-adam"}, "-method"},
		{[]string{"-mode", "dp", "-method", "llm265", "-bits", "0"}, "-bits"},
		{[]string{"-mode", "pp", "-method", "act", "-bits", "0"}, "-bits"},
		{[]string{"-mode", "dp", "-method", "rtn", "-bits", "0.9"}, "-bits"},
		{[]string{"-mode", "dp", "-method", "rtn", "-bits", "2.6"}, "-bits"},
		{[]string{"-mode", "dp", "-method", "rtn", "-bits", "17"}, "-bits"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var so, se bytes.Buffer
			cmd := exec.Command(bin, append(c.args, "-steps", "2")...)
			cmd.Stdout, cmd.Stderr = &so, &se
			err := cmd.Run()
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				t.Fatalf("trainsim %v: %v", c.args, err)
			}
			stderr := se.String()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Errorf("trainsim %v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
			}
			if !strings.Contains(stderr, c.flag) {
				t.Errorf("trainsim %v: stderr %q does not name %s", c.args, stderr, c.flag)
			}
			if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine ") {
				t.Errorf("trainsim %v: a Go panic, not a usage error:\n%s", c.args, stderr)
			}
			if so.Len() != 0 {
				t.Errorf("trainsim %v: printed %q before refusing", c.args, so.String())
			}
		})
	}
}
