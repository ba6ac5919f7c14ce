// Package canbus encodes sensor measurements as CAN-style data frames.
// The paper's sensors share a CAN bus; this codec models the wire format:
// an 8-byte payload carrying the sensor id, a sequence counter, the
// fixed-point interval bounds, and a CRC-8 checksum. Encoding quantizes
// interval bounds to the fixed-point grid, widening outward so the
// decoded interval always contains the original (a correct sensor stays
// correct through the bus).
package canbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sensorfusion/internal/interval"
)

// Scale is the fixed-point resolution: raw units per physical unit.
// 1/1024 physical-unit resolution comfortably exceeds any sensor
// precision in the case study.
const Scale = 1024

// Payload layout (8 bytes, little-endian where multi-byte):
//
//	byte 0    sensor id (0..255)
//	byte 1    sequence counter (wraps at 256)
//	bytes 2-4 lo: signed 24-bit fixed point, floor-quantized
//	bytes 5-6 width: unsigned 16-bit fixed point, ceil-quantized
//	byte 7    CRC-8 (poly 0x07) over bytes 0-6
const PayloadLen = 8

// Limits of the fixed-point encoding.
const (
	maxLoRaw  = 1<<23 - 1
	minLoRaw  = -(1 << 23)
	maxWidRaw = 1<<16 - 1
)

// ErrEncode reports values outside the wire format's range.
var ErrEncode = errors.New("canbus: value not encodable")

// ErrDecode reports malformed or corrupted payloads.
var ErrDecode = errors.New("canbus: bad payload")

// Message is a decoded bus frame.
type Message struct {
	Sensor int
	Seq    uint8
	Iv     interval.Interval
}

// Encode packs a sensor's interval into an 8-byte payload. The interval
// is widened outward to the fixed-point grid: lo rounds down, width
// rounds up, so Decode(Encode(iv)) always contains iv.
func Encode(sensor int, seq uint8, iv interval.Interval) ([PayloadLen]byte, error) {
	var p [PayloadLen]byte
	if sensor < 0 || sensor > 255 {
		return p, fmt.Errorf("%w: sensor %d", ErrEncode, sensor)
	}
	if !iv.Valid() {
		return p, fmt.Errorf("%w: invalid interval %v", ErrEncode, iv)
	}
	loRaw := int64(math.Floor(iv.Lo * Scale))
	hiRaw := int64(math.Ceil(iv.Hi * Scale))
	widRaw := hiRaw - loRaw
	if loRaw < minLoRaw || loRaw > maxLoRaw {
		return p, fmt.Errorf("%w: lo %v out of range", ErrEncode, iv.Lo)
	}
	if widRaw < 0 || widRaw > maxWidRaw {
		return p, fmt.Errorf("%w: width %v out of range", ErrEncode, iv.Width())
	}
	p[0] = byte(sensor)
	p[1] = seq
	u := uint32(loRaw) & 0xFFFFFF // two's-complement 24-bit
	p[2] = byte(u)
	p[3] = byte(u >> 8)
	p[4] = byte(u >> 16)
	binary.LittleEndian.PutUint16(p[5:7], uint16(widRaw))
	p[7] = crc8(p[:7])
	return p, nil
}

// Decode unpacks a payload, verifying the checksum.
func Decode(p [PayloadLen]byte) (Message, error) {
	if crc8(p[:7]) != p[7] {
		return Message{}, fmt.Errorf("%w: CRC mismatch", ErrDecode)
	}
	u := uint32(p[2]) | uint32(p[3])<<8 | uint32(p[4])<<16
	// Sign-extend 24-bit two's complement.
	loRaw := int32(u<<8) >> 8
	widRaw := binary.LittleEndian.Uint16(p[5:7])
	lo := float64(loRaw) / Scale
	hi := lo + float64(widRaw)/Scale
	iv, err := interval.New(lo, hi)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return Message{Sensor: int(p[0]), Seq: p[1], Iv: iv}, nil
}

// crc8 computes CRC-8 with polynomial 0x07 (ATM HEC), the classic CAN
// application-layer checksum choice.
func crc8(data []byte) byte {
	crc := byte(0)
	for _, b := range data {
		crc ^= b
		for bit := 0; bit < 8; bit++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// RoundTrip encodes and decodes, returning the quantized interval as it
// would arrive at the controller. Useful for studying quantization
// widening in isolation.
func RoundTrip(sensor int, seq uint8, iv interval.Interval) (interval.Interval, error) {
	p, err := Encode(sensor, seq, iv)
	if err != nil {
		return interval.Interval{}, err
	}
	m, err := Decode(p)
	if err != nil {
		return interval.Interval{}, err
	}
	return m.Iv, nil
}

// MaxWidening returns the worst-case growth of an interval through the
// codec: lo can drop by up to 1/Scale and width grow by up to 2/Scale.
func MaxWidening() float64 { return 2.0 / Scale }
