package eventlog

// Hand-rolled codec for the single timestamp layout the log format uses
// ("2006-01-02T15:04:05Z", UTC). The generic time.Parse/AppendFormat pair
// re-interprets the layout string on every call and dominated the per-line
// cost of log replay; this codec is safe to substitute because the Writer
// emits exactly one canonical layout, and the parser accepts exactly the
// language time.Parse accepts for that layout (fixed-width fields, range
// checks including leap years, plus Go's documented tolerance for a
// fractional-seconds suffix that is absent from the layout).
//
// Civil-date arithmetic is timebase's (Howard Hinnant's era-based
// civil_from_days/days_from_civil), valid over the whole proleptic
// Gregorian calendar.

import (
	"fmt"
	"math"
	"time"

	"unprotected/internal/timebase"
)

// epochUnix is the study epoch as a Unix time; the codec converts between
// timebase.T (seconds since the study epoch) and civil UTC fields through
// Unix seconds.
var epochUnix = timebase.Epoch.Unix()

const secondsPerDay = 86400

// maxEpochDelta is the saturation point of timebase.FromTime: time.Time.Sub
// clamps to ±math.MaxInt64 nanoseconds (±292 years), so any parsed instant
// farther from the study epoch collapses to ±maxEpochDelta seconds. The
// codec reproduces that exactly — a replayed log must yield the same
// timebase.T the time.Parse pipeline yielded, even for absurd years.
const maxEpochDelta = int64(math.MaxInt64 / time.Second)

func isLeap(y int64) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

func daysInMonth(y int64, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default: // February
		if isLeap(y) {
			return 29
		}
		return 28
	}
}

// appendTimestamp renders t in the canonical layout, byte-identical to
// t.Time().AppendFormat(b, tsLayout). Years outside [0, 9999] cannot be
// rendered in the fixed four-digit form and fall back to AppendFormat.
func appendTimestamp(b []byte, t timebase.T) []byte {
	unix := int64(t) + epochUnix
	days := timebase.FloorDiv(unix, secondsPerDay)
	rem := unix - days*secondsPerDay // [0, 86399]
	y, m, d := timebase.CivilFromDays(days)
	if y < 0 || y > 9999 {
		return t.Time().AppendFormat(b, tsLayout)
	}
	b = append(b,
		byte('0'+y/1000%10), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10), 'T')
	hh, mm, ss := rem/3600, rem/60%60, rem%60
	b = append(b,
		byte('0'+hh/10), byte('0'+hh%10), ':',
		byte('0'+mm/10), byte('0'+mm%10), ':',
		byte('0'+ss/10), byte('0'+ss%10), 'Z')
	return b
}

// num2 parses two ASCII digits; ok is false on any non-digit.
func num2(v []byte, i int) (int, bool) {
	a, b := v[i]-'0', v[i+1]-'0'
	return int(a)*10 + int(b), a <= 9 && b <= 9
}

// parseTimestamp parses the canonical layout. It accepts exactly what
// time.Parse(tsLayout, v) accepts: fixed-width numeric fields (except the
// hour, which Go's "15" layout token parses as one or two digits), full
// range validation (month, day-in-month with leap years, hour, minute,
// second), and an optional fractional-seconds suffix ('.' or ',' followed
// by digits) that Go's parser tolerates even though the layout has none —
// the fraction is discarded, as timebase.T has whole-second resolution.
func parseTimestamp(v []byte) (timebase.T, error) {
	if len(v) < 19 || v[4] != '-' || v[7] != '-' || v[10] != 'T' {
		return 0, errTimestamp(v)
	}
	y4, ok0 := num2(v, 0)
	y2, ok1 := num2(v, 2)
	mo, ok2 := num2(v, 5)
	d, ok3 := num2(v, 8)
	if !(ok0 && ok1 && ok2 && ok3) {
		return 0, errTimestamp(v)
	}
	// Hour: one or two digits (time.Parse's 24-hour token is not
	// fixed-width), then fixed ":MM:SS".
	i := 11
	hh := int(v[i] - '0')
	if hh > 9 {
		return 0, errTimestamp(v)
	}
	i++
	if d2 := v[i] - '0'; d2 <= 9 {
		hh = hh*10 + int(d2)
		i++
	}
	if len(v) < i+7 || v[i] != ':' || v[i+3] != ':' {
		return 0, errTimestamp(v)
	}
	mm, ok4 := num2(v, i+1)
	ss, ok5 := num2(v, i+4)
	if !(ok4 && ok5) {
		return 0, errTimestamp(v)
	}
	i += 6
	fracNonzero := false
	if v[i] == '.' || v[i] == ',' {
		j := i + 1
		for j < len(v) && v[j]-'0' <= 9 {
			// time.Parse keeps at most nine fractional digits (nanosecond
			// resolution); deeper digits are consumed but can never make
			// the fraction nonzero.
			if v[j] != '0' && j <= i+9 {
				fracNonzero = true
			}
			j++
		}
		if j == i+1 {
			return 0, errTimestamp(v) // bare '.' with no digits
		}
		i = j
	}
	if i != len(v)-1 || v[i] != 'Z' {
		return 0, errTimestamp(v)
	}
	y := int64(y4)*100 + int64(y2)
	if mo < 1 || mo > 12 || d < 1 || d > daysInMonth(y, mo) || hh > 23 || mm > 59 || ss > 59 {
		return 0, errTimestamp(v)
	}
	unix := timebase.DaysFromCivil(y, mo, d)*secondsPerDay + int64(hh)*3600 + int64(mm)*60 + int64(ss)
	delta := unix - epochUnix
	// Match FromTime's truncation toward zero: a nonzero fraction on an
	// instant before the epoch rounds the whole-second delta up.
	if delta < 0 && fracNonzero {
		delta++
	}
	if delta > maxEpochDelta {
		delta = maxEpochDelta
	} else if delta < -maxEpochDelta {
		delta = -maxEpochDelta
	}
	return timebase.T(delta), nil
}

// errTimestamp builds the (allocating) error for a rejected timestamp; the
// value's bytes are copied into the message immediately, so the error never
// aliases a reusable read buffer.
func errTimestamp(v []byte) error {
	return fmt.Errorf("invalid timestamp %q (want %s)", v, tsLayout)
}
