//! Deep index statistics: a read-only walk over *frozen ∪ delta*.
//!
//! [`XmlIndex::stats`] turns the index from a black box into an
//! inspectable shape report: trie depth/fanout/preorder-range
//! distributions, the stored-sequence length distribution the sequencing
//! strategy produced, horizontal-link and sibling-cover density, and the
//! update overlay's occupancy.  Everything is computed by traversal of
//! already-frozen structures — no locks, no mutation, `O(nodes)` — so it
//! is safe to call on a live database between queries.
//!
//! Distributions use the same power-of-two bucketing as the telemetry
//! histograms ([`bucket_of`]/[`bucket_bounds`]), so the report composes
//! with the rest of the observability surface.

use crate::trie::{SequenceTrie, TrieNodeId};
use crate::XmlIndex;
use std::fmt::Write as _;
use xseq_telemetry::{bucket_bounds, bucket_of};

/// Shape statistics of one trie segment (frozen or delta).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Real trie nodes (the virtual root excluded).
    pub nodes: usize,
    /// Inserted sequences (documents, counting duplicates).
    pub sequences: usize,
    /// Deepest real node (root children are depth 1).
    pub max_depth: usize,
    /// Node count per depth; `depth_counts[d]` is the number of real
    /// nodes at depth `d` (index 0 unused).
    pub depth_counts: Vec<u64>,
    /// Node count per child count, over real nodes (leaves land at
    /// index 0).
    pub fanout_counts: Vec<u64>,
    /// Children of the virtual root — the number of distinct leading
    /// sequence elements.
    pub root_fanout: usize,
    /// Preorder-range width distribution: `range_width_buckets[b]` counts
    /// real nodes whose subtree width `n⊣ − n⊢ + 1` falls in power-of-two
    /// bucket `b` (see [`bucket_of`]).
    pub range_width_buckets: Vec<u64>,
    /// Stored-sequence length distribution: `seq_len_counts[l]` counts end
    /// nodes at depth `l` — the lengths the sequencing strategy produced.
    pub seq_len_counts: Vec<u64>,
    /// Distinct paths owning a horizontal link.
    pub link_paths: usize,
    /// Total link entries (equals `nodes` by construction; reported so the
    /// invariant is visible).
    pub link_entries: usize,
    /// Nodes whose range embeds another node with the same path — the
    /// nodes where Algorithm 1's sibling-cover check can actually fire.
    pub sibling_cover_nodes: usize,
    /// Nodes owning a document id list.
    pub end_nodes: usize,
    /// Total document ids across all lists.
    pub doc_ids: usize,
}

impl SegmentStats {
    /// Collects the statistics of one frozen trie.  Nodes are in preorder
    /// and every parent precedes its children, so depth and fan-out come
    /// from `parent[]` in one forward pass.
    #[expect(clippy::indexing_slicing, reason = "tables sized to n; node ids < n, parents smaller")]
    pub fn collect(trie: &SequenceTrie) -> SegmentStats {
        let f = trie.frozen();
        let n = trie.node_count() + 1;
        let mut s = SegmentStats {
            nodes: trie.node_count(),
            sequences: trie.sequence_count(),
            link_paths: f.links.path_count(),
            link_entries: f.links.entries.len(),
            end_nodes: f.end_nodes.len(),
            sibling_cover_nodes: f.embeds_bits.iter().map(|w| w.count_ones() as usize).sum(),
            ..SegmentStats::default()
        };
        let (mut depths, mut fanout) = (vec![0usize; n], vec![0usize; n]);
        for i in 1..n {
            let p = SequenceTrie::parent(trie, i as TrieNodeId) as usize;
            depths[i] = depths[p] + 1;
            fanout[p] += 1;
        }
        s.root_fanout = fanout[0];
        for i in 1..n {
            bump(&mut s.depth_counts, depths[i]);
            s.max_depth = s.max_depth.max(depths[i]);
            bump(&mut s.fanout_counts, fanout[i]);
            let width = u64::from(f.max_desc[i] - i as u32) + 1;
            bump(&mut s.range_width_buckets, bucket_of(width));
        }
        for (end, docs) in trie.doc_lists() {
            bump(&mut s.seq_len_counts, depths[end as usize]);
            s.doc_ids += docs.len();
        }
        s
    }

    /// Folds another segment's statistics into this one — the cross-shard
    /// aggregate view: counters sum, distribution vectors add element-wise
    /// (extending to the longer length), and `max_depth` takes the max.
    pub fn merge(&mut self, other: &SegmentStats) {
        self.nodes += other.nodes;
        self.sequences += other.sequences;
        self.max_depth = self.max_depth.max(other.max_depth);
        add_counts(&mut self.depth_counts, &other.depth_counts);
        add_counts(&mut self.fanout_counts, &other.fanout_counts);
        self.root_fanout += other.root_fanout;
        add_counts(&mut self.range_width_buckets, &other.range_width_buckets);
        add_counts(&mut self.seq_len_counts, &other.seq_len_counts);
        self.link_paths += other.link_paths;
        self.link_entries += other.link_entries;
        self.sibling_cover_nodes += other.sibling_cover_nodes;
        self.end_nodes += other.end_nodes;
        self.doc_ids += other.doc_ids;
    }

    /// Mean children per non-leaf node, `None` when the trie is empty or
    /// all-leaf.
    pub fn mean_fanout(&self) -> Option<f64> {
        let interior: u64 = self.fanout_counts.iter().skip(1).sum();
        let children: u64 = self
            .fanout_counts
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum();
        (interior > 0).then(|| children as f64 / interior as f64)
    }

    /// Mean entries per horizontal link — the path-sharing factor a
    /// descent's binary searches run over.
    pub fn link_density(&self) -> Option<f64> {
        (self.link_paths > 0).then(|| self.link_entries as f64 / self.link_paths as f64)
    }

    /// Fraction of nodes where the sibling-cover check is live.
    pub fn sibling_cover_density(&self) -> Option<f64> {
        (self.nodes > 0).then(|| self.sibling_cover_nodes as f64 / self.nodes as f64)
    }

    /// Mean stored-sequence length (over end nodes), the strategy's
    /// output-length signal.
    pub fn mean_seq_len(&self) -> Option<f64> {
        let ends: u64 = self.seq_len_counts.iter().sum();
        let total: u64 = self
            .seq_len_counts
            .iter()
            .enumerate()
            .map(|(l, &c)| l as u64 * c)
            .sum();
        (ends > 0).then(|| total as f64 / ends as f64)
    }
}

fn add_counts(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

#[expect(clippy::indexing_slicing, reason = "the resize above guarantees idx < v.len()")]
fn bump(v: &mut Vec<u64>, idx: usize) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += 1;
}

/// The full index shape report: both segments plus overlay occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// The sequencing strategy's short name.
    pub strategy: String,
    /// The bulk-built frozen segment.
    pub frozen: SegmentStats,
    /// The update overlay's delta segment.
    pub delta: SegmentStats,
    /// Tombstoned document ids awaiting compaction.
    pub tombstones: usize,
    /// Distinct data paths in the wildcard dictionary.
    pub data_paths: usize,
}

impl IndexStats {
    /// Folds another index's report into this one — used by sharded
    /// databases to present one aggregate shape report over every shard.
    /// `strategy` keeps `self`'s name (all shards share one configured
    /// strategy kind); `data_paths` and `tombstones` sum, which counts a
    /// path once per shard that contains it (shard tables are independent
    /// id spaces).
    pub fn merge(&mut self, other: &IndexStats) {
        self.frozen.merge(&other.frozen);
        self.delta.merge(&other.delta);
        self.tombstones += other.tombstones;
        self.data_paths += other.data_paths;
    }

    /// Renders the report as an indented text block (the shape half of the
    /// observability example's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "index stats (strategy {}):", self.strategy);
        let _ = writeln!(
            out,
            "  dictionary: {} distinct data paths | tombstones {}",
            self.data_paths, self.tombstones
        );
        for (name, seg) in [("frozen", &self.frozen), ("delta", &self.delta)] {
            let _ = writeln!(
                out,
                "  {name}: {} nodes, {} sequences, {} end nodes, {} doc ids",
                seg.nodes, seg.sequences, seg.end_nodes, seg.doc_ids
            );
            if seg.nodes == 0 {
                continue;
            }
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.2}"));
            let _ = writeln!(
                out,
                "    depth max {} | root fanout {} | mean fanout {} | mean seq len {}",
                seg.max_depth,
                seg.root_fanout,
                fmt(seg.mean_fanout()),
                fmt(seg.mean_seq_len()),
            );
            let _ = writeln!(
                out,
                "    links: {} paths, {} entries (density {}) | sibling-cover nodes {} ({})",
                seg.link_paths,
                seg.link_entries,
                fmt(seg.link_density()),
                seg.sibling_cover_nodes,
                fmt(seg.sibling_cover_density()),
            );
            let _ = write!(out, "    depth histogram:");
            for (d, &c) in seg.depth_counts.iter().enumerate() {
                if c > 0 {
                    let _ = write!(out, " {d}:{c}");
                }
            }
            out.push('\n');
            let _ = write!(out, "    range widths:");
            for (b, &c) in seg.range_width_buckets.iter().enumerate() {
                if c > 0 {
                    let (lo, hi) = bucket_bounds(b);
                    let _ = write!(out, " [{lo},{hi}]:{c}");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Collects [`IndexStats`] over every segment of an index: the frozen trie
/// in the `frozen` slot, and the overlay's segments — tier runs plus the
/// memtable view — merged into the `delta` slot.
pub fn index_stats(index: &XmlIndex) -> IndexStats {
    let mut delta = SegmentStats::default();
    for segment in index.delta().delta_view().segments() {
        delta.merge(&SegmentStats::collect(segment));
    }
    IndexStats {
        strategy: index.strategy().short_name().to_string(),
        frozen: SegmentStats::collect(index.trie()),
        delta,
        tombstones: index.tombstones().len(),
        data_paths: index.data_paths().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOptions;
    use xseq_sequence::Strategy;
    use xseq_xml::{parse_document, PathTable, SymbolTable, ValueMode};

    fn build(xmls: &[&str]) -> (XmlIndex, PathTable) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs: Vec<_> = xmls
            .iter()
            .map(|x| parse_document(x, &mut st).expect("fixture parses"))
            .collect();
        let mut pt = PathTable::new();
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        (index, pt)
    }

    #[test]
    fn segment_stats_count_the_shape() {
        let (index, _) = build(&[
            "<p><a><x/></a></p>", // P, P.A, P.A.X
            "<p><a><y/></a></p>", // shares P, P.A
            "<p><b/></p>",        // shares P
        ]);
        let stats = index_stats(&index);
        let f = &stats.frozen;
        // nodes: P, P.A, P.A.X, P.A.Y, P.B
        assert_eq!(f.nodes, 5);
        assert_eq!(f.sequences, 3);
        assert_eq!(f.root_fanout, 1, "all sequences start with P");
        assert_eq!(f.max_depth, 3);
        assert_eq!(f.depth_counts, vec![0, 1, 2, 2]);
        // links: one entry per node, one path per distinct encoding
        assert_eq!(f.link_entries, 5);
        assert_eq!(f.link_paths, 5);
        assert_eq!(f.end_nodes, 3);
        assert_eq!(f.doc_ids, 3);
        // all three sequences have length 3 (P, P.x, P.x.y) except <p><b/>
        assert_eq!(f.seq_len_counts, vec![0, 0, 1, 2]);
        assert_eq!(f.mean_seq_len(), Some(8.0 / 3.0));
        // no repeated same-path nesting in this corpus
        assert_eq!(f.sibling_cover_nodes, 0);
        // delta is empty
        assert_eq!(stats.delta.nodes, 0);
        assert_eq!(stats.tombstones, 0);
        let text = stats.render();
        assert!(text.contains("frozen: 5 nodes"), "{text}");
        assert!(text.contains("depth histogram: 1:1 2:2 3:2"), "{text}");
    }

    #[test]
    fn range_widths_cover_every_node_once() {
        let (index, _) = build(&["<p><a><x/></a></p>", "<p><a><y/></a></p>", "<q><z/></q>"]);
        let stats = index_stats(&index);
        let total: u64 = stats.frozen.range_width_buckets.iter().sum();
        assert_eq!(total as usize, stats.frozen.nodes);
    }

    #[test]
    fn delta_and_tombstones_show_up() {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs: Vec<_> = ["<p><a/></p>", "<p><b/></p>"]
            .iter()
            .map(|x| parse_document(x, &mut st).expect("fixture parses"))
            .collect();
        let mut pt = PathTable::new();
        let mut index =
            XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        let extra = parse_document("<p><c/></p>", &mut st).expect("fixture parses");
        index.insert_delta(&extra, 2, &mut pt);
        index.remove_doc(0);
        let stats = index_stats(&index);
        assert_eq!(stats.delta.sequences, 1);
        assert_eq!(stats.delta.nodes, 2, "P shared prefix plus P.C");
        assert_eq!(stats.tombstones, 1);
        let text = stats.render();
        assert!(text.contains("tombstones 1"), "{text}");
    }

    #[test]
    fn merged_stats_sum_the_shards() {
        let (a, _) = build(&["<p><a><x/></a></p>", "<p><b/></p>"]);
        let (b, _) = build(&["<q><z/></q>"]);
        let mut merged = index_stats(&a);
        let sb = index_stats(&b);
        merged.merge(&sb);
        let sa = index_stats(&a);
        assert_eq!(merged.frozen.nodes, sa.frozen.nodes + sb.frozen.nodes);
        assert_eq!(
            merged.frozen.sequences,
            sa.frozen.sequences + sb.frozen.sequences
        );
        assert_eq!(merged.frozen.doc_ids, sa.frozen.doc_ids + sb.frozen.doc_ids);
        assert_eq!(
            merged.frozen.max_depth,
            sa.frozen.max_depth.max(sb.frozen.max_depth)
        );
        assert_eq!(merged.data_paths, sa.data_paths + sb.data_paths);
        // distribution vectors add element-wise
        let total: u64 = merged.frozen.depth_counts.iter().sum();
        let ta: u64 = sa.frozen.depth_counts.iter().sum();
        let tb: u64 = sb.frozen.depth_counts.iter().sum();
        assert_eq!(total, ta + tb);
        assert_eq!(merged.strategy, sa.strategy);
    }

    #[test]
    fn sibling_cover_nodes_match_embeds() {
        // Identical siblings sequence as ⟨P, PL, PL⟩: a trie chain where the
        // outer PL node's range embeds the identical inner PL node.
        let (index, _) = build(&["<p><l/><l/></p>"]);
        let stats = index_stats(&index);
        assert!(stats.frozen.sibling_cover_nodes >= 1);
    }
}
