// Package allocflowbad is a lint fixture: //dhllint:hotpath functions
// whose bodies or callees allocate — one direct site per kind the
// allocflow pass classifies, plus a transitive violation visible only
// through the call graph.
package allocflowbad

import "fmt"

// format is the allocation leaf: fmt.Sprintf allocates by contract.
func format(n int) string {
	return fmt.Sprintf("cart-%d", n)
}

// describe is the middle hop: no sites of its own.
func describe(n int) string {
	return format(n)
}

// HotChain reaches the allocation through two levels of helpers:
// HotChain → describe → format → fmt.Sprintf.
//
//dhllint:hotpath
func HotChain(n int) string {
	return describe(n)
}

// HotDirect allocates in place, one site per kind on its own line.
//
//dhllint:hotpath
func HotDirect(xs []int, n int) int {
	buf := make([]int, 4)
	grown := append(xs, n)
	var boxed interface{} = n
	m := map[string]int{"a": 1}
	m["b"] = n
	_ = boxed
	return len(buf) + len(grown) + len(m)
}

// sink takes any value, so its argument is boxed.
func sink(x any) { _ = x }

// HotBoxedMake boxes a fresh slice: the make and the boxing are two sites
// at one position, and both are reported.
//
//dhllint:hotpath
func HotBoxedMake() {
	sink(make([]int, 3))
}
