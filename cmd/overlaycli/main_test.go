package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagHelpNamesValidValues is the flag-help drift test: the usage
// strings are the only documentation `-h` shows, so the flags whose
// values come from a closed set or a named grammar must keep saying
// what the valid values are. When a flag's semantics change, this test
// forces its help text to move with it.
func TestFlagHelpNamesValidValues(t *testing.T) {
	fs := flag.NewFlagSet("overlaycli", flag.ContinueOnError)
	registerFlags(fs)

	wants := map[string][]string{
		// -accounting parses exactly charged|measured (main rejects
		// anything else) and measured flips -message-level on.
		"accounting": {"charged|measured", "implies -message-level"},
		// -plan is parsed by overlay.ParsePlan, the one plan grammar:
		// the usage string must point at it, keep naming the core fault
		// and churn keys by example, and say what each half switches on.
		"plan": {"overlay.ParsePlan grammar", "drop=", "crash=", "imply -message-level", "epochs=", "join=", "leave=", "churnseed="},
		// -retries arms the recovery ladder: the help must say both
		// what is retried and what happens when the ladder is spent.
		"retries": {"recovery ladder", "patch and rebuild attempts", "rolling back"},
		// -topology accepts exactly the four generators.
		"topology": {"line|ring|tree|grid"},
	}
	for name, phrases := range wants {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s no longer registered", name)
			continue
		}
		for _, phrase := range phrases {
			if !strings.Contains(f.Usage, phrase) {
				t.Errorf("flag -%s usage no longer mentions %q:\n  %s", name, phrase, f.Usage)
			}
		}
	}
	// The legacy grammars are gone with their parsers.
	for _, name := range []string{"faults", "churn"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s is registered again; -plan is the one grammar", name)
		}
	}
}

// TestFlagDefaultsAreValid pins the defaults of the closed-set flags
// to values main's own switch accepts.
func TestFlagDefaultsAreValid(t *testing.T) {
	fs := flag.NewFlagSet("overlaycli", flag.ContinueOnError)
	fl := registerFlags(fs)
	if got := *fl.acctName; got != "charged" && got != "measured" {
		t.Errorf("-accounting default %q is not a valid accounting mode", got)
	}
	if *fl.retries < 0 {
		t.Errorf("-retries default %d is negative; main rejects it", *fl.retries)
	}
}
