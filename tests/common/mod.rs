//! Helpers shared by the integration suites.

use std::path::Path;

use bgq_core::index::IndexBuilder;
use bgq_logs::snapshot;
use bgq_logs::store::LoadOptions;
use bgq_serve::{Epoch, QuarantinedSegment};

/// The serve layer's batch oracle: a cold full load of `root` under
/// `load`, folded in one batch and rendered into an [`Epoch`] carrying
/// `epoch_no` so its `OK` headers line up with the daemon's.
pub fn batch_epoch(root: &Path, epoch_no: u64, load: &LoadOptions) -> Epoch {
    let manifest = snapshot::read_manifest(root).expect("batch manifest");
    let (ds, report) = snapshot::read_dir_with(root, load).expect("batch load");
    let quarantined = report
        .quarantined_segments()
        .into_iter()
        .map(|seg| QuarantinedSegment {
            table: seg.table,
            day: seg.day,
            reason: seg.quarantined.expect("quarantined segment has a reason"),
        })
        .collect();
    Epoch::build(
        epoch_no,
        &ds,
        &report.partitions,
        &manifest.days,
        &manifest.availability,
        &mut IndexBuilder::new(),
        quarantined,
    )
}
