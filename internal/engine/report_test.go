package engine

import (
	"reflect"
	"testing"
)

// reportParts places every Report field once: "profile" = the job
// profile a run record keeps (dataflow and cost statistics), "trace" =
// what Profile drops (the task timeline, sampled series and outputs).
var reportParts = map[string]string{
	"Query": "profile", "Platform": "profile",
	"RunningTime": "profile", "MapFinishTime": "profile",
	"MapCPUPerNode": "profile", "ReduceCPUPerNode": "profile",
	"InputBytes": "profile", "MapSpillBytes": "profile", "MapOutputBytes": "profile", "ReduceSpillBytes": "profile", "OutputBytes": "profile",
	"TotalIOBytes": "profile", "TotalIORequests": "profile",
	"MemShuffleFetches": "profile", "DiskShuffleFetches": "profile",
	"NodeCombineInputRecords": "profile", "NodeCombineOutputRecords": "profile", "ShuffleBytesSaved": "profile",
	"ShuffleBytesByNode": "profile",
	"NodesLost":          "profile", "ReExecutedMapTasks": "profile", "RestartedReduceTasks": "profile",
	"SpeculativeBackups": "profile", "SpeculativeWins": "profile", "FetchRetries": "profile",
	"WastedCPUPerNode": "profile", "Checkpoints": "profile", "CheckpointBytes": "profile", "RecoveryReadBytes": "profile",
	"CorruptFramesDetected": "profile", "IORetries": "profile", "TornWritesRepaired": "profile", "QuarantinedRecords": "profile",
	"ChecksumOverheadBytes": "profile", "ChecksumOverheadByClass": "profile",
	"OutputRecords": "profile", "MapInputRecords": "profile", "MapOutputRecords": "profile",
	"ApproxKeys": "profile", "SnapshotRecords": "profile",
	"Workers": "profile", "WallTime": "profile",
	"Progress": "trace", "Samples": "trace", "Outputs": "trace", "Spans": "trace",
}

// fillNonzero sets v to a nonzero value of its kind.
func fillNonzero(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(name)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Array:
		fillNonzero(t, name, v.Index(0))
	default:
		t.Fatalf("Report.%s: teach fillNonzero the kind %s", name, v.Kind())
	}
}

// TestProfileDropsExactlyTheTrace walks Report by reflection: with
// every field nonzero, Profile must zero exactly the fields listed
// "trace", keep every "profile" field as it was, and leave the
// receiver whole. A field in neither list fails, so a new Report field
// is placed in or out of the persisted run record deliberately.
func TestProfileDropsExactlyTheTrace(t *testing.T) {
	var rep Report
	v := reflect.ValueOf(&rep).Elem()
	for i := 0; i < v.NumField(); i++ {
		fillNonzero(t, v.Type().Field(i).Name, v.Field(i))
	}
	whole := rep
	p := reflect.ValueOf(*rep.Profile())
	seen := map[string]bool{}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		seen[name] = true
		switch part := reportParts[name]; {
		case part == "":
			t.Errorf("Report.%s is in no list: keep it in the profile (\"profile\") or drop it with the trace (\"trace\")", name)
		case part == "trace" && !p.Field(i).IsZero():
			t.Errorf("Report.%s is listed as trace but Profile kept it", name)
		case part == "profile" && !reflect.DeepEqual(p.Field(i).Interface(), v.Field(i).Interface()):
			t.Errorf("Report.%s is listed as profile but Profile changed it", name)
		}
	}
	for name := range reportParts {
		if !seen[name] {
			t.Errorf("reportParts lists %s, which Report no longer has", name)
		}
	}
	if diff := ReportDiff(&whole, &rep); diff != "" {
		t.Errorf("Profile changed its receiver's %s", diff)
	}
}
