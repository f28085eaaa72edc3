//go:build unix

package dio

import (
	"syscall"
	"time"
)

// processCPU is the CPU time, user and system, the process has used so far.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
