package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time, the clock every timing of
// the benchmark reads; a goroutine that times with it first locks itself
// to its thread. The operations timed (a replan with one solver worker, a
// burst of lookups) run on one thread and never wait for input, so on an
// undisturbed host their CPU time is their wall time. On a shared virtual
// machine it is steadier: the kernel leaves out of it the time the
// hypervisor gives the processor to other guests (steal time), which
// swings by whole seconds from run to run.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}
