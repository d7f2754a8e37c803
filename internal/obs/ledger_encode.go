package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"unicode/utf8"
)

// ledgerEncoder encodes ledger events into buffers it keeps, so a log that
// owns one allocates nothing per line once they have grown.
type ledgerEncoder struct {
	line []byte
	keys []string // scratch for sorting args keys
}

// encodeLine returns e as one newline-terminated JSON line, valid until the
// next call.
func (enc *ledgerEncoder) encodeLine(e LedgerEvent) ([]byte, error) {
	var err error
	if enc.line, err = enc.appendEvent(enc.line[:0], e); err != nil {
		return nil, err
	}
	enc.line = append(enc.line, '\n')
	return enc.line, nil
}

// appendEvent appends e as one JSON object, byte for byte what encoding/json
// writes for LedgerEvent with HTML escaping off: the struct's field order and
// omitempty rules, encoding/json's float format, args keys sorted. A NaN or
// infinite number yields the *json.UnsupportedValueError encoding/json
// reports for it.
func (enc *ledgerEncoder) appendEvent(b []byte, e LedgerEvent) ([]byte, error) {
	var err error
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(e.Schema), 10)
	b = append(b, `,"type":`...)
	b = AppendJSONString(b, e.Type, false)
	if e.Name != "" {
		b = append(b, `,"name":`...)
		b = AppendJSONString(b, e.Name, false)
	}
	if e.Step != 0 {
		b = append(b, `,"step":`...)
		b = strconv.AppendInt(b, int64(e.Step), 10)
	}
	b = append(b, `,"ts_us":`...)
	if b, err = AppendJSONFloat(b, e.TS); err != nil {
		return b, err
	}
	if e.Dur != 0 {
		b = append(b, `,"dur_us":`...)
		if b, err = AppendJSONFloat(b, e.Dur); err != nil {
			return b, err
		}
	}
	if e.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, e.Bytes, 10)
	}
	if e.Mem != 0 {
		b = append(b, `,"mem":`...)
		b = strconv.AppendInt(b, e.Mem, 10)
	}
	if len(e.Args) > 0 {
		enc.keys = enc.keys[:0]
		for k := range e.Args {
			enc.keys = append(enc.keys, k)
		}
		sort.Strings(enc.keys)
		b = append(b, `,"args":{`...)
		for i, k := range enc.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(b, k, false)
			b = append(b, ':')
			if b, err = AppendJSONFloat(b, e.Args[k]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// AppendJSONFloat is encoding/json's float64 rule: shortest round-trip
// digits, 'f' form except below 1e-6 and from 1e21, where the 'e' form has
// its two-digit negative exponent trimmed (e-09 → e-9). A NaN or infinity is
// the *json.UnsupportedValueError encoding/json reports for it.
//
// Nearly every number a ledger carries is a whole number of thousandths —
// ts_us and dur_us are nanoseconds over 1e3, counts are integers — and for
// those the digits are written directly, without the shortest-digits search.
// If f is n/1e3 correctly rounded, the decimal n/1000 parses back to f; below
// 1e15 it has at most 15 significant digits, and two different decimals that
// short never share a float64, so no shorter decimal round-trips: n/1000
// with its trailing zeros dropped is the shortest form strconv would find.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	if abs >= 1e-3 && abs < 1e12 {
		if n := int64(abs*1e3 + 0.5); float64(n)/1e3 == abs {
			if f < 0 {
				dst = append(dst, '-')
			}
			dst = strconv.AppendInt(dst, n/1000, 10)
			if frac := n % 1000; frac != 0 {
				dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
				for dst[len(dst)-1] == '0' {
					dst = dst[:len(dst)-1]
				}
			}
			return dst, nil
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendJSONString quotes s as encoding/json does, with its HTML escaping
// (<, > and & as \u003c, \u003e, \u0026) on or off: \" \\ \b \f \n \r \t for
// those bytes, \u00XX for the other control bytes, \ufffd for each byte that
// is not valid UTF-8, and U+2028 and U+2029 always escaped. Runs of anything
// else — every type, kernel, args and analysis name this repository writes is
// one — are copied as they stand.
func AppendJSONString(dst []byte, s string, escapeHTML bool) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && !(escapeHTML && (b == '<' || b == '>' || b == '&')) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if size == 1 || c == '\u2028' || c == '\u2029' { // size 1: a byte that is not UTF-8
			dst = append(dst, s[start:i]...)
			if size == 1 {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
			}
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
