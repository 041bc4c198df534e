// Package htest is the hotpath analyzer's corpus: hot holds one
// instance of every forbidden pattern, cold repeats them without the
// annotation, and flat shows the allocation-free spellings that pass.
package htest

import "fmt"

type boxer interface{ box() }

type val int

func (v val) box() {}

// hot is the positive corpus.
//
//overlay:hotpath
func hot(names []string, v val, n int) string {
	msg := fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf in hotpath function hot`
	msg = msg + "!"               // want `string concatenation in hotpath function hot`
	msg += "?"                    // want `string \+= in hotpath function hot`
	var out []string
	for _, name := range names {
		out = append(out, name) // want `append to out in a loop in hotpath function hot`
	}
	cb := func() int { return n } // want `closure in hotpath function hot captures n`
	_ = cb
	go func(q int) { _ = q + n }(n) // want `go statement in hotpath function hot` `closure in hotpath function hot captures n`
	go v.box()                      // want `go statement in hotpath function hot`
	_ = boxer(v)                    // want `conversion to interface type boxer in hotpath function hot boxes its operand`
	_ = out
	_ = make([]int, n) // want `make in hotpath function hot allocates`
	_ = new(val)       // want `new in hotpath function hot allocates`
	//lint:alloc
	_ = make([]int, n) // want `//lint:alloc needs a reason`
	return msg
}

// cold has no annotation: the same patterns pass off the hot path.
func cold(names []string, v val, n int) string {
	msg := fmt.Sprintf("n=%d", n)
	msg = msg + "!"
	var out []string
	for _, name := range names {
		out = append(out, name)
	}
	cb := func() int { return n }
	_ = cb
	go func(q int) { _ = q + n }(n)
	go v.box()
	_ = boxer(v)
	_ = out
	_ = make([]int, n)
	_ = new(val)
	return msg
}

// flat shows the spellings the analyzer accepts: allocation-free ones,
// and allocations a //lint:alloc reason justifies, on the line or the
// line above.
//
//overlay:hotpath
func flat(scratch []string, n int) int {
	// Invoked on the spot: captures stay on the stack.
	total := func() int { return n * 2 }()
	// Preallocated: growth never reallocates.
	//lint:alloc one exact allocation per call
	out := make([]string, 0, len(scratch))
	for _, s := range scratch {
		out = append(out, s)
	}
	if cap(scratch) < n {
		scratch = make([]string, 2*n) //lint:alloc geometric growth of kept storage
	}
	return total + len(out) + len(scratch)
}
