package main

// CPU placement for the live workloads. Left to the kernel, the daemon's
// and the generator's threads share two virtual CPUs in whatever pattern
// the scheduler settles into for that run, and the same seed measures
// 27k or 36k events/s. The daemon therefore gets the first CPU this
// process may use and the load-generating threads the second: a stated
// placement, the same on both sides of any comparison.

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: 1024 CPUs, the kernel's default limit.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	return m, nil
}

// setAffinity applies to the calling thread, so the caller has locked it.
func setAffinity(m cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %v", errno)
	}
	return nil
}

// nthCPU is a mask of only the n-th CPU set in m (n from 0).
func (m cpuMask) nthCPU(n int) (cpuMask, bool) {
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		if n == 0 {
			var one cpuMask
			one[cpu/64] = 1 << (cpu % 64)
			return one, true
		}
		n--
	}
	return cpuMask{}, false
}

// onCPU runs f on a thread confined to the n-th CPU this process may
// use, and gives the thread back as it was. A child process f starts
// inherits the confinement.
func onCPU(n int, f func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	all, err := getAffinity()
	if err != nil {
		return err
	}
	one, ok := all.nthCPU(n)
	if !ok {
		return fmt.Errorf("this process may use fewer than %d CPUs", n+1)
	}
	if err := setAffinity(one); err != nil {
		return err
	}
	defer setAffinity(all)
	return f()
}

const (
	daemonCPU    = 0 // index among the CPUs this process may use
	generatorCPU = 1
)
