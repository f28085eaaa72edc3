//go:build !unix

package dio

import "time"

// processCPU reports no CPU time where getrusage is missing.
func processCPU() (time.Duration, bool) { return 0, false }
