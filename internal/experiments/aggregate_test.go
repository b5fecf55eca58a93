package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestEpochStatsAggregationCoversAllFields is the guard the ExposedCommTime
// episode motivated: every scalar field of core.EpochStats must be both
// summed by addEpochStats and divided by avgEpochStats. The test sets every
// numeric field to a sentinel via reflection, pushes n copies through the
// shared aggregation pair, and checks each field came back at exactly the
// sentinel — a field a future PR adds but forgets in addEpochStats reads 0,
// one summed but missed in avgEpochStats reads n×sentinel, and either way
// the test names the field instead of letting a table skew silently.
func TestEpochStatsAggregationCoversAllFields(t *testing.T) {
	const n = 4
	const sentinel = 4096 // divisible by n: duration division must be exact

	var in core.EpochStats
	iv := reflect.ValueOf(&in).Elem()
	typ := iv.Type()
	numeric := 0
	for i := 0; i < iv.NumField(); i++ {
		f := iv.Field(i)
		switch f.Kind() {
		case reflect.Int64: // time.Duration and byte counters
			f.SetInt(sentinel)
			numeric++
		case reflect.Float64:
			f.SetFloat(sentinel)
			numeric++
		case reflect.Slice:
			// SampledBd: per-partition counts, deliberately not averaged by
			// the shared helpers (experiments report it per epoch).
		default:
			t.Fatalf("EpochStats field %s has kind %s the aggregation guard does not model; extend the test",
				typ.Field(i).Name, f.Kind())
		}
	}
	if numeric < 8 {
		t.Fatalf("only %d numeric fields found; reflection walk is broken", numeric)
	}

	var agg core.EpochStats
	for i := 0; i < n; i++ {
		addEpochStats(&agg, &in)
	}
	avgEpochStats(&agg, n)

	av := reflect.ValueOf(agg)
	for i := 0; i < av.NumField(); i++ {
		f := av.Field(i)
		name := typ.Field(i).Name
		var got float64
		switch f.Kind() {
		case reflect.Int64:
			got = float64(f.Int())
		case reflect.Float64:
			got = f.Float()
		default:
			continue
		}
		switch got {
		case sentinel:
		case 0:
			t.Errorf("EpochStats.%s is not summed by addEpochStats (averaged to 0, want %d)", name, sentinel)
		case sentinel * n:
			t.Errorf("EpochStats.%s is summed but never divided by avgEpochStats (got %v, want %d)", name, got, sentinel)
		default:
			t.Errorf("EpochStats.%s averaged to %v, want %d", name, got, sentinel)
		}
	}

	// The duration fields must really be divided as durations (no unit
	// slip): spot-check one.
	if agg.SampleTime != time.Duration(sentinel) {
		t.Errorf("SampleTime averaged to %v, want %v", agg.SampleTime, time.Duration(sentinel))
	}
}
