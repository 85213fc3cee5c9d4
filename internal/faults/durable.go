package faults

// Durable parking: when an image is attached, every stable delivery that
// parks in NVRAM on retry exhaustion is committed to the on-disk image
// under NSParked, and removed when it drains. The simulated "bytes sit
// safely in NVRAM awaiting recovery" story thus has real bytes behind it:
// kill the process at any point and RecoverParked reads the exact backlog
// out of the file. Volatile (stalled/shed) entries are deliberately NOT
// written — they exist only in the writer's memory, which is the whole
// difference between the organizations.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"nvramfs/internal/nvram"
)

// parkedRecordLen is the fixed encoding size of one parked delivery.
const parkedRecordLen = 54

// ParkedDelivery is one stable delivery parked in NVRAM: the delivery
// plus its redelivery schedule, everything needed to resume the drain
// after a crash.
type ParkedDelivery struct {
	D       Delivery
	ReadyAt int64
	Since   int64
}

// AttachImage mirrors the injector's NVRAM-parked backlog into the
// durable image (namespace NSParked). Attach before the first Deliver;
// the injector never writes volatile entries to the image. Image errors
// latch in the image itself (img.Err()), keeping the simulator hot path
// free of error plumbing.
func (x *Injector) AttachImage(img *nvram.Image) {
	x.img = img
}

// Begin opens a batch on the attached image (a no-op without one): the
// parks and unparks of every call until the matching Commit share one
// commit barrier. Deliver and Advance each run inside a batch of their
// own, so a caller that never calls Begin sees every call durable on
// return; an owner that has many deliveries in hand wraps them in one
// batch and pays the barrier once. The injector still commits before any
// sleep that really blocks, so a batch never waits on a retry schedule.
func (x *Injector) Begin() {
	if x.img != nil {
		x.img.Begin()
	}
}

// Commit closes the batch the matching Begin opened; the outermost one
// returns once everything parked or unparked inside it is durable. Errors
// latch in the image, as everywhere on this path.
func (x *Injector) Commit() {
	if x.img != nil {
		x.img.Commit()
	}
}

// parkedKey orders image entries by sequence number: big-endian so the
// image's sorted-key iteration is seq order.
func parkedKey(seq uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	return string(b[:])
}

func encodeParked(e pendingEntry) [parkedRecordLen]byte {
	var b [parkedRecordLen]byte
	binary.LittleEndian.PutUint64(b[0:], e.d.Seq)
	binary.LittleEndian.PutUint32(b[8:], e.d.Client)
	binary.LittleEndian.PutUint64(b[12:], e.d.File)
	binary.LittleEndian.PutUint64(b[20:], uint64(e.d.Start))
	binary.LittleEndian.PutUint64(b[28:], uint64(e.d.End))
	b[36] = e.d.Cause
	if e.d.Stable {
		b[37] = 1
	}
	binary.LittleEndian.PutUint64(b[38:], uint64(e.readyAt))
	binary.LittleEndian.PutUint64(b[46:], uint64(e.since))
	return b
}

func decodeParked(payload []byte) (ParkedDelivery, error) {
	if len(payload) != parkedRecordLen {
		return ParkedDelivery{}, fmt.Errorf("faults: parked record is %d bytes, want %d", len(payload), parkedRecordLen)
	}
	var p ParkedDelivery
	p.D.Seq = binary.LittleEndian.Uint64(payload[0:])
	p.D.Client = binary.LittleEndian.Uint32(payload[8:])
	p.D.File = binary.LittleEndian.Uint64(payload[12:])
	p.D.Start = int64(binary.LittleEndian.Uint64(payload[20:]))
	p.D.End = int64(binary.LittleEndian.Uint64(payload[28:]))
	p.D.Cause = payload[36]
	p.D.Stable = payload[37] != 0
	p.ReadyAt = int64(binary.LittleEndian.Uint64(payload[38:]))
	p.Since = int64(binary.LittleEndian.Uint64(payload[46:]))
	return p, nil
}

// parkDurable and unparkDurable are the degrade/drain hooks.
func (x *Injector) parkDurable(e pendingEntry) {
	if x.img != nil && e.d.Stable {
		b := encodeParked(e)
		x.img.Put(nvram.NSParked, parkedKey(e.d.Seq), b[:])
	}
}

func (x *Injector) unparkDurable(d Delivery) {
	if x.img != nil && d.Stable {
		x.img.Delete(nvram.NSParked, parkedKey(d.Seq))
	}
}

// ParkedDeliveries returns the injector's in-memory NVRAM-parked backlog
// in sequence order — the oracle the crash harness compares the durable
// image against.
func (x *Injector) ParkedDeliveries() []ParkedDelivery {
	var out []ParkedDelivery
	for _, e := range x.pending {
		if e.d.Stable {
			out = append(out, ParkedDelivery{D: e.d, ReadyAt: e.readyAt, Since: e.since})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].D.Seq < out[j].D.Seq })
	return out
}

// RecoverParked reads the parked backlog out of a reopened image in
// sequence order — what a recovery agent on another machine would find on
// the detached NVRAM board.
func RecoverParked(img *nvram.Image) ([]ParkedDelivery, error) {
	var out []ParkedDelivery
	var firstErr error
	img.ForEach(nvram.NSParked, func(key string, payload []byte) {
		p, err := decodeParked(payload)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		out = append(out, p)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
