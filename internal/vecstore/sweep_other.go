//go:build !amd64

package vecstore

// haveKernel is false: off amd64 there is no packed kernel.
const haveKernel = false

// sweep4 does no rows off amd64; sweepGo does them all.
func sweep4(acc []float64, q8 []int8, stride int, lanes []lane) int { return 0 }
