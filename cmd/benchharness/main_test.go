package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunOnlySelectsOneExperiment: -only with a known name prints that
// experiment's table and nothing else; with an unknown name it prints
// nothing and fails naming the valid experiments (it used to print
// nothing and exit 0).
func TestRunOnlySelectsOneExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2021, true, "E4", 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "## "); got != 1 || !strings.HasPrefix(out.String(), "## E4 ") {
		t.Errorf("-only E4 -quick printed %d tables, want exactly the E4 table:\n%s", got, out.String())
	}

	out.Reset()
	err := run(&out, 2021, true, "E99", 0, "", "")
	if err == nil {
		t.Fatal("-only E99 succeeded")
	}
	for _, want := range []string{`"E99"`, "E1, ", "E12", "A2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("-only E99 printed:\n%s", out.String())
	}
}
