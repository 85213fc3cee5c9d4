//go:build linux

package nvram

import (
	"os"
	"syscall"
	"unsafe"
)

// mmapMapping is the real thing: the image file mapped MAP_SHARED, so
// stores land in the kernel's page cache for the file and survive process
// death; msync(MS_SYNC) makes a range power-failure durable. This is the
// pmem_map_file/mmap pattern of the pmembench NonVolatileMemory exemplars,
// built on the stdlib syscall package only.
type mmapMapping struct {
	f    *os.File
	data []byte
}

func openMapping(f *os.File, size int64) (mapping, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return &mmapMapping{f: f, data: data}, nil
}

func (m *mmapMapping) bytes() []byte { return m.data }

// sync makes [off, end) of the mapping durable. msync requires a
// page-aligned start address: Image.msync widens off down to one.
func (m *mmapMapping) sync(off, end int64) error {
	if end <= off {
		return nil
	}
	b := m.data[off:end]
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}

func (m *mmapMapping) close() error {
	syncErr := m.sync(0, int64(len(m.data)))
	unmapErr := syscall.Munmap(m.data)
	closeErr := m.f.Close()
	m.data = nil
	if syncErr != nil {
		return syncErr
	}
	if unmapErr != nil {
		return unmapErr
	}
	return closeErr
}
