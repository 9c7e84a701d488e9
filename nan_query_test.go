package topk

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// withNaN returns a deep copy of the query q with its i-th float64
// coordinate (counted over exported fields, slice and array elements,
// modulo their number) set to NaN, and the number of coordinates.
func withNaN(q any, i int) (any, int) {
	v := reflect.New(reflect.TypeOf(q)).Elem()
	v.Set(deepCopy(reflect.ValueOf(q)))
	var leaves []reflect.Value
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			leaves = append(leaves, v)
		case reflect.Struct:
			for f := 0; f < v.NumField(); f++ {
				if v.Type().Field(f).IsExported() {
					walk(v.Field(f))
				}
			}
		case reflect.Slice, reflect.Array:
			for e := 0; e < v.Len(); e++ {
				walk(v.Index(e))
			}
		}
	}
	walk(v)
	if len(leaves) == 0 {
		return q, 0
	}
	leaves[i%len(leaves)].SetFloat(math.NaN())
	return v.Interface(), len(leaves)
}

func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		for f := 0; f < v.NumField(); f++ {
			if v.Type().Field(f).IsExported() {
				c.Field(f).Set(deepCopy(v.Field(f)))
			}
		}
		return c
	}
	return v
}

// TestConformanceNaNQueries checks, for every problem × reduction, that a
// query with a NaN coordinate answers like Oracle on every query path:
// TopK, Max, ReportAbove and QueryBatch. No coordinate comparison with
// NaN holds, so Oracle matches nothing; a black box that read NaN as
// "equal" or "between" would answer items.
func TestConformanceNaNQueries(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, r := range AllReductions() {
			t.Run(fmt.Sprintf("%s/%v", spec.Name, r), func(t *testing.T) {
				sv, err := spec.Build(confN, confSeed, WithReduction(r))
				if err != nil {
					t.Fatal(err)
				}
				var qs []any
				for qi, q := range sv.GenQueries(10, confQSeed) {
					_, coords := withNaN(q, 0)
					if coords == 0 {
						t.Fatalf("query %#v has no float64 coordinate", q)
					}
					for c := 0; c < coords; c++ {
						nq, _ := withNaN(q, qi+c)
						qs = append(qs, nq)
					}
				}
				batch := sv.QueryBatch(qs, 5, 2)
				for qi, q := range qs {
					oracle := servedWeights(sv.Oracle(q))
					top := oracle[:min(5, len(oracle))]
					var best []float64
					if m, ok := sv.Max(q); ok {
						best = []float64{m.Weight}
					}
					for _, c := range []struct {
						name      string
						got, want []float64
					}{
						{"TopK", servedWeights(sv.TopK(q, 5)), top},
						{"Max", best, oracle[:min(1, len(oracle))]},
						{"ReportAbove", servedWeights(sv.ReportAbove(q, math.Inf(-1))), oracle},
						{"QueryBatch", servedWeights(batch[qi].Items), top},
					} {
						if c.name == "ReportAbove" { // unspecified order
							sort.Float64s(c.got)
							c.want = append([]float64(nil), c.want...)
							sort.Float64s(c.want)
						}
						if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
							t.Fatalf("q%d %#v: %s answered %v, Oracle %v", qi, q, c.name, c.got, c.want)
						}
					}
				}
			})
		}
	}
}
