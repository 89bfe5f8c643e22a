//! Wordcount: count occurrences of zipf-distributed words.
//!
//! Wordcount's combiner collapses the map output dramatically, so its
//! shuffle is tiny relative to its input — which is why the paper runs it
//! with a *single* ReduceTask and uses it for the temporal-amplification
//! timeline (Figs. 3 and 10): one long-running reducer whose failure stalls
//! the whole job.

use rand::distr::Distribution;
use rand::SeedableRng;
use rand_distr::Zipf;

use crate::model::{constants::*, WorkloadModel};
use crate::record::Record;
use crate::Workload;

/// Wordcount over synthetic zipf text.
#[derive(Debug, Clone)]
pub struct Wordcount {
    /// Words per input split (each input record is a "line" of words).
    pub words_per_split: u32,
    pub words_per_line: u32,
}

impl Wordcount {
    pub fn new(words_per_split: u32, words_per_line: u32) -> Wordcount {
        Wordcount { words_per_split, words_per_line: words_per_line.max(1) }
    }

    pub fn small() -> Wordcount {
        Wordcount::new(5_000, 20)
    }

    /// Deterministic word spelling for a vocabulary rank.
    fn word(rank: u64) -> Vec<u8> {
        format!("w{rank:07}").into_bytes()
    }
}

fn parse_count(v: &[u8]) -> u64 {
    let mut arr = [0u8; 8];
    arr[..v.len().min(8)].copy_from_slice(&v[..v.len().min(8)]);
    u64::from_be_bytes(arr)
}

fn encode_count(c: u64) -> Vec<u8> {
    c.to_be_bytes().to_vec()
}

impl Workload for Wordcount {
    fn name(&self) -> &'static str {
        "wordcount"
    }

    fn gen_split(&self, split_index: u32, seed: u64) -> Vec<Record> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ ((split_index as u64) << 20) ^ 0x5eed);
        let zipf = Zipf::new(WORDCOUNT_VOCABULARY as f64, WORDCOUNT_ZIPF_S).expect("valid zipf parameters");
        let lines = self.words_per_split.div_ceil(self.words_per_line);
        (0..lines)
            .map(|i| {
                let mut line =
                    Vec::with_capacity((self.words_per_line as usize) * (WORDCOUNT_MEAN_WORD_LEN + 1));
                for j in 0..self.words_per_line {
                    if i * self.words_per_line + j >= self.words_per_split {
                        break;
                    }
                    let rank = zipf.sample(&mut rng) as u64;
                    line.extend_from_slice(&Wordcount::word(rank));
                    line.push(b' ');
                }
                Record::new(format!("line{i}").into_bytes(), line)
            })
            .collect()
    }

    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
        for word in rec.value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            emit(Record::new(word.to_vec(), encode_count(1)));
        }
    }

    fn combine(&self, _key: &[u8], values: &[Vec<u8>]) -> Option<Vec<u8>> {
        Some(encode_count(values.iter().map(|v| parse_count(v)).sum()))
    }

    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
        let total: u64 = values.iter().map(|v| parse_count(v)).sum();
        emit(Record::new(key.to_vec(), encode_count(total)));
    }

    /// Hash partitioner (Hadoop default for Wordcount).
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
        if num_reduces <= 1 {
            return 0;
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % num_reduces as u64) as u32
    }

    fn model(&self) -> WorkloadModel {
        WorkloadModel {
            name: "wordcount",
            // After map-side combining, intermediate data is a small
            // fraction of input: bounded by vocabulary x maps, empirically
            // ~6% for 10 GB over this vocabulary.
            map_output_ratio: 0.06,
            reduce_output_ratio: 0.9,
            record_size: (WORDCOUNT_MEAN_WORD_LEN + 8 + 8) as u64,
            map_cpu_secs_per_gb: 60.0, // tokenisation + combining dominate
            reduce_cpu_secs_per_gb: 30.0,
            deser_secs_per_record: 8e-7,
            partition_imbalance: 1.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_deterministic_and_nonempty() {
        let w = Wordcount::small();
        let a = w.gen_split(0, 9);
        assert_eq!(a, w.gen_split(0, 9));
        assert!(!a.is_empty());
        let words: usize =
            a.iter().map(|r| r.value.split(|&b| b == b' ').filter(|w| !w.is_empty()).count()).sum();
        assert_eq!(words, 5_000);
    }

    #[test]
    fn map_emits_one_per_word() {
        let w = Wordcount::small();
        let rec = Record::new(b"l".to_vec(), b"a b a ".to_vec());
        let mut out = Vec::new();
        w.map(&rec, &mut |r| out.push(r));
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key, b"a");
        assert_eq!(parse_count(&out[0].value), 1);
    }

    #[test]
    fn combine_and_reduce_sum() {
        let w = Wordcount::small();
        let vals = vec![encode_count(2), encode_count(3)];
        assert_eq!(parse_count(&w.combine(b"x", &vals).unwrap()), 5);
        let mut out = Vec::new();
        w.reduce(b"x", &vals, &mut |r| out.push(r));
        assert_eq!(out.len(), 1);
        assert_eq!(parse_count(&out[0].value), 5);
    }

    #[test]
    fn zipf_skews_counts() {
        // The most common word should appear far more often than the median.
        let w = Wordcount::new(20_000, 50);
        let recs = w.gen_split(0, 3);
        let mut counts = std::collections::BTreeMap::new();
        for r in &recs {
            let mut emit = |rec: Record| {
                *counts.entry(rec.key).or_insert(0u64) += 1;
            };
            w.map(r, &mut emit);
        }
        let max = *counts.values().max().unwrap();
        let distinct = counts.len() as u64;
        assert!(max > 20_000 / distinct * 10, "zipf head should dominate: max={max}, distinct={distinct}");
    }

    #[test]
    fn partitioner_covers_range() {
        let w = Wordcount::small();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            seen.insert(w.partition(&Wordcount::word(i), 8));
        }
        assert_eq!(seen.len(), 8, "all partitions receive keys");
        assert!(seen.iter().all(|&p| p < 8));
    }
}
