//! Seeded request and mutation streams. Content depends only on the
//! workload seed (never on the offered rate), so the untraced run, every
//! saturation step and the traced run all see the same requests in the
//! same order. Arrival instants come from a separate seeded Poisson
//! process per phase.

use crate::fixtures::{subseed, City, Workload, PRIMARY};
use prim_graph::PoiId;
use prim_obs::json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `top_k` size on every workload.
pub const TOPK_K: usize = 10;
/// Neighbourhood radius: the quantized-scan regime on the metro city.
pub const NEIGHBOURHOOD_KM: f64 = 1.5;
/// Metro radius: covers over a quarter of the metro city, the HNSW-beam
/// regime.
pub const METRO_KM: f64 = 12.0;
/// Zipf exponent of `serve-point` POI popularity.
pub const ZIPF_S: f64 = 1.1;
/// `ingest-mixed`: mutations between two `ingest_flush` ops.
pub const FLUSH_EVERY: usize = 16;
/// `ingest-mixed`: base POIs held back for `retire_poi` (never read,
/// never an edge endpoint, each retired at most once).
pub const RETIRE_POOL: usize = 64;

/// What a read asks for, structured for the output checker.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadOp {
    Score {
        src: u32,
        dst: u32,
    },
    Batch {
        pairs: Vec<(u32, u32)>,
    },
    TopK {
        src: u32,
        radius_km: f64,
        relation: usize,
    },
}

/// One read request: target tenant, structured op, and its wire line.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadReq {
    pub city: usize,
    pub op: ReadOp,
    pub line: String,
}

impl ReadReq {
    /// Short label for per-kind breakdowns.
    pub fn kind(&self) -> &'static str {
        match &self.op {
            ReadOp::Score { .. } => "score",
            ReadOp::Batch { .. } => "batch",
            ReadOp::TopK { radius_km, .. } if *radius_km >= METRO_KM => "topk_metro",
            ReadOp::TopK { .. } => "topk_neighbourhood",
        }
    }
}

/// Zipf(`s`) over `0..n`, ranks shuffled by a seeded permutation so the
/// hot ids are spread over the city rather than being ids 0, 1, 2...
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut StdRng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, ids }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.ids.len() - 1);
        self.ids[rank]
    }
}

fn route(city: &str) -> String {
    format!(", \"city\": {}", json::str(city))
}

pub(crate) fn score_line(city: &str, src: u32, dst: u32) -> String {
    format!(
        "{{\"op\": \"score\", \"src\": {src}, \"dst\": {dst}{}}}",
        route(city)
    )
}

pub(crate) fn batch_line(city: &str, pairs: &[(u32, u32)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
    format!(
        "{{\"op\": \"batch\", \"pairs\": [{}]{}}}",
        body.join(", "),
        route(city)
    )
}

pub(crate) fn topk_line(city: &str, src: u32, radius_km: f64, relation: &str) -> String {
    format!(
        "{{\"op\": \"top_k\", \"src\": {src}, \"k\": {TOPK_K}, \"relation\": {}, \
         \"radius_km\": {radius_km}{}}}",
        json::str(relation),
        route(city)
    )
}

/// Relation ids a `top_k` may name (every relation except φ).
fn relations(city: &City) -> usize {
    city.dataset.relation_names.len()
}

/// The first `n` reads of `workload`'s stream.
pub fn reads(workload: Workload, cities: &[City], seed: u64, n: usize) -> Vec<ReadReq> {
    let mut rng = StdRng::seed_from_u64(subseed(seed, 0x5eed_0001));
    match workload {
        Workload::ServePoint => {
            let zipfs: Vec<Zipf> = cities
                .iter()
                .map(|c| Zipf::new(c.dataset.graph.num_pois(), ZIPF_S, &mut rng))
                .collect();
            (0..n)
                .map(|_| {
                    let ci = rng.gen_range(0..cities.len());
                    let (z, name) = (&zipfs[ci], &cities[ci].name);
                    if rng.gen::<f64>() < 0.8 {
                        let (src, dst) = (z.sample(&mut rng), z.sample(&mut rng));
                        ReadReq {
                            city: ci,
                            op: ReadOp::Score { src, dst },
                            line: score_line(name, src, dst),
                        }
                    } else {
                        let pairs: Vec<(u32, u32)> = (0..4)
                            .map(|_| (z.sample(&mut rng), z.sample(&mut rng)))
                            .collect();
                        ReadReq {
                            city: ci,
                            line: batch_line(name, &pairs),
                            op: ReadOp::Batch { pairs },
                        }
                    }
                })
                .collect()
        }
        Workload::TopkMetro => {
            let city = &cities[0];
            let n_pois = city.dataset.graph.num_pois() as u32;
            (0..n)
                .map(|_| {
                    let src = rng.gen_range(0..n_pois);
                    let relation = rng.gen_range(0..relations(city));
                    let radius_km = if rng.gen::<f64>() < 0.7 {
                        NEIGHBOURHOOD_KM
                    } else {
                        METRO_KM
                    };
                    ReadReq {
                        city: 0,
                        line: topk_line(
                            &city.name,
                            src,
                            radius_km,
                            &city.dataset.relation_names[relation],
                        ),
                        op: ReadOp::TopK {
                            src,
                            radius_km,
                            relation,
                        },
                    }
                })
                .collect()
        }
        Workload::IngestMixed => {
            let city = &cities[0];
            let readable = (city.dataset.graph.num_pois() - RETIRE_POOL) as u32;
            (0..n)
                .map(|_| {
                    let src = rng.gen_range(0..readable);
                    if rng.gen::<f64>() < 0.7 {
                        let dst = rng.gen_range(0..readable);
                        ReadReq {
                            city: 0,
                            op: ReadOp::Score { src, dst },
                            line: score_line(PRIMARY, src, dst),
                        }
                    } else {
                        let relation = rng.gen_range(0..relations(city));
                        ReadReq {
                            city: 0,
                            line: topk_line(
                                PRIMARY,
                                src,
                                NEIGHBOURHOOD_KM,
                                &city.dataset.relation_names[relation],
                            ),
                            op: ReadOp::TopK {
                                src,
                                radius_km: NEIGHBOURHOOD_KM,
                                relation,
                            },
                        }
                    }
                })
                .collect()
        }
    }
}

/// One writer op of `ingest-mixed`.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOp {
    AddPoi {
        lon: f64,
        lat: f64,
        category: u32,
        attrs: Vec<f32>,
    },
    AddEdge {
        src: u32,
        dst: u32,
        relation: usize,
    },
    Retire {
        poi: u32,
    },
    Flush,
}

impl WriteOp {
    pub fn is_mutation(&self) -> bool {
        !matches!(self, WriteOp::Flush)
    }

    /// The op's wire line, routed to `city`.
    pub fn line(&self, city: &str, relation_names: &[String]) -> String {
        let r = route(city);
        match self {
            WriteOp::AddPoi {
                lon,
                lat,
                category,
                attrs,
            } => {
                let attrs: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                format!(
                    "{{\"op\": \"add_poi\", \"lon\": {lon}, \"lat\": {lat}, \"category\": {category}, \
                     \"attrs\": [{}]{r}}}",
                    attrs.join(", ")
                )
            }
            WriteOp::AddEdge { src, dst, relation } => format!(
                "{{\"op\": \"add_edge\", \"src\": {src}, \"dst\": {dst}, \"relation\": {}{r}}}",
                json::str(&relation_names[*relation])
            ),
            WriteOp::Retire { poi } => format!("{{\"op\": \"retire_poi\", \"poi\": {poi}{r}}}"),
            WriteOp::Flush => format!("{{\"op\": \"ingest_flush\"{r}}}"),
        }
    }
}

/// The first `n` writer ops: [`FLUSH_EVERY`] mutations then a flush,
/// repeated. Mutations are 50% spatially-local `add_poi`, 48% `add_edge`
/// among readable base POIs and 2% `retire_poi` from the retire pool.
pub fn writes(city: &City, seed: u64, n: usize) -> Vec<WriteOp> {
    let mut rng = StdRng::seed_from_u64(subseed(seed, 0x5eed_0002));
    let ds = &city.dataset;
    let n0 = ds.graph.num_pois();
    let readable = (n0 - RETIRE_POOL) as u32;
    let mut retire_next = readable;
    let mut out = Vec::with_capacity(n);
    let mut since_flush = 0;
    while out.len() < n {
        if since_flush == FLUSH_EVERY {
            out.push(WriteOp::Flush);
            since_flush = 0;
            continue;
        }
        since_flush += 1;
        let pick: f64 = rng.gen();
        if pick < 0.02 && (retire_next as usize) < n0 {
            out.push(WriteOp::Retire { poi: retire_next });
            retire_next += 1;
        } else if pick < 0.52 {
            let anchor = rng.gen_range(0..readable);
            let poi = ds.graph.poi(PoiId(anchor));
            out.push(WriteOp::AddPoi {
                lon: poi.location.lon + rng.gen_range(-5e-4..5e-4),
                lat: poi.location.lat + rng.gen_range(-5e-4..5e-4),
                category: poi.category.0,
                attrs: ds.attrs.row(anchor as usize).to_vec(),
            });
        } else {
            let src = rng.gen_range(0..readable);
            let mut dst = rng.gen_range(0..readable - 1);
            if dst >= src {
                dst += 1;
            }
            out.push(WriteOp::AddEdge {
                src,
                dst,
                relation: rng.gen_range(0..ds.relation_names.len()),
            });
        }
    }
    out
}

/// Poisson arrival offsets (seconds from phase start) at `rate_hz` over
/// `horizon_s`, seeded per phase.
pub fn arrivals(rate_hz: f64, horizon_s: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate_hz * horizon_s * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        at += -u.ln() / rate_hz;
        if at >= horizon_s {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::generate;

    fn bytes_of_reads(r: &[ReadReq]) -> Vec<u8> {
        r.iter()
            .flat_map(|q| q.line.bytes().chain([b'\n']))
            .collect()
    }

    fn bytes_of_writes(city: &City, w: &[WriteOp]) -> Vec<u8> {
        w.iter()
            .flat_map(|o| o.line(PRIMARY, &city.dataset.relation_names).into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_same_streams_other_seed_different() {
        let dir = std::env::temp_dir().join(format!("perfbench-streams-{}", std::process::id()));
        for w in Workload::ALL {
            let a = generate(w, 5, &dir.join("a")).unwrap();
            let b = generate(w, 5, &dir.join("b")).unwrap();
            let c = generate(w, 6, &dir.join("c")).unwrap();
            // Fixtures themselves are seeded: identical checkpoint bytes.
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    std::fs::read(&x.ckpt).unwrap(),
                    std::fs::read(&y.ckpt).unwrap()
                );
            }
            let ra = bytes_of_reads(&reads(w, &a, 5, 500));
            assert_eq!(ra, bytes_of_reads(&reads(w, &b, 5, 500)), "{}", w.name());
            assert_ne!(ra, bytes_of_reads(&reads(w, &c, 6, 500)), "{}", w.name());
        }
        let a = generate(Workload::IngestMixed, 5, &dir.join("a")).unwrap();
        let c = generate(Workload::IngestMixed, 6, &dir.join("c")).unwrap();
        let wa = bytes_of_writes(&a[0], &writes(&a[0], 5, 400));
        assert_eq!(wa, bytes_of_writes(&a[0], &writes(&a[0], 5, 400)));
        assert_ne!(wa, bytes_of_writes(&c[0], &writes(&c[0], 6, 400)));
        assert_eq!(arrivals(100.0, 2.0, 9), arrivals(100.0, 2.0, 9));
        assert_ne!(arrivals(100.0, 2.0, 9), arrivals(100.0, 2.0, 10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_stream_flushes_every_f_mutations_and_retires_once() {
        let dir = std::env::temp_dir().join(format!("perfbench-writes-{}", std::process::id()));
        let city = generate(Workload::IngestMixed, 3, &dir).unwrap();
        let ops = writes(&city[0], 3, 2_000);
        for block in ops.chunks(FLUSH_EVERY + 1) {
            if block.len() == FLUSH_EVERY + 1 {
                assert!(block[..FLUSH_EVERY].iter().all(WriteOp::is_mutation));
                assert_eq!(block[FLUSH_EVERY], WriteOp::Flush);
            }
        }
        let mut retired: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o {
                WriteOp::Retire { poi } => Some(*poi),
                _ => None,
            })
            .collect();
        let n = retired.len();
        retired.dedup();
        assert_eq!(n, retired.len(), "each pool POI retires at most once");
        std::fs::remove_dir_all(&dir).ok();
    }
}
