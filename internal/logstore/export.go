package logstore

import (
	"sort"

	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/thermal"
)

// Export writes a dataset in the prototype's on-disk layout: one log file
// per node with START/ERROR/END lines in time order. ERROR lines carry the
// independent faults (one line per fault — the raw multi-million-record
// stream would be gigabytes and adds nothing the extraction keeps). Each
// line's last=/logs= fields record the collapsed run's extent and raw
// volume, so Events reconstructs the exact fault set, including
// per-fault raw-log weights.
func Export(sessions []eventlog.Session, faults []extract.Fault, dir string) error {
	return ExportFS(sessions, faults, dir, iofault.OS)
}

// ExportFS is Export with every file operation routed through fsys.
func ExportFS(sessions []eventlog.Session, faults []extract.Fault, dir string, fsys iofault.FS) error {
	store, err := NewStoreFS(dir, fsys)
	if err != nil {
		return err
	}
	perNode := make(map[cluster.NodeID][]eventlog.Record)
	for _, s := range sessions {
		perNode[s.Host] = AppendSessionRecords(perNode[s.Host], s)
	}
	for _, f := range faults {
		perNode[f.Node] = append(perNode[f.Node], FaultRecord(f))
	}
	for _, recs := range perNode {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
		for _, rec := range recs {
			if err := store.Append(rec); err != nil {
				store.Close()
				return err
			}
		}
	}
	return store.Close()
}

// FaultRecord renders an extracted fault as its canonical ERROR record.
// The last=/logs= fields carry the collapsed run's extent and raw volume,
// so a re-import reconstructs the fault exactly instead of re-collapsing
// it. Every fault sink shares this construction so the interchange files
// cannot drift apart.
func FaultRecord(f extract.Fault) eventlog.Record {
	return eventlog.Record{
		Kind: eventlog.KindError, At: f.FirstAt, Host: f.Node,
		VAddr:  dram.VirtAddr(f.Addr),
		Actual: f.Actual, Expected: f.Expected,
		TempC:    f.TempC,
		PhysPage: dram.PhysPage(uint64(f.Node.Index()), f.Addr),
		LastAt:   f.LastAt, Logs: max(f.Logs, 1),
	}
}

// AppendSessionRecords appends a session's START record and, unless the
// session was truncated by a hard reboot that never logged one, its END
// record. Sessions carry no temperature, so both records say temp=NA — a
// zero TempC would fabricate a 0°C reading.
func AppendSessionRecords(dst []eventlog.Record, s eventlog.Session) []eventlog.Record {
	dst = append(dst, eventlog.Record{
		Kind: eventlog.KindStart, At: s.From, Host: s.Host, AllocBytes: s.AllocBytes,
		TempC: thermal.NoReading,
	})
	if !s.Truncated {
		dst = append(dst, eventlog.Record{
			Kind: eventlog.KindEnd, At: s.To, Host: s.Host, TempC: thermal.NoReading,
		})
	}
	return dst
}
