//! File-sharing traffic for the engine workloads: who downloads which file
//! from whom, how they vote, and what polluters do.
//!
//! Users download titles drawn from a Zipf popularity law, with a skewed
//! (Zipf) activity law over users. The most popular titles also have a fake
//! copy served by a small polluter population; a download that lands on a
//! fake draws a low vote and is usually deleted quickly, an authentic one
//! draws a high vote and is kept. Downloaders sometimes rate the uploader.

use crate::gen::{permutation, Rng, Zipf};
use mdrep::{EngineEvent, OwnerEvaluation};
use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use std::collections::HashMap;

/// What differs between the engine workloads' traffic mixes.
#[derive(Debug, Clone, Copy)]
pub struct TrafficShape {
    pub users: usize,
    /// Authentic titles; fake copies get ids above this range.
    pub titles: usize,
    pub title_zipf: f64,
    /// Share of titles, most popular first, that have a fake copy.
    pub polluted_titles: f64,
}

/// Zipf exponent of user activity.
const ACTIVITY_ZIPF: f64 = 0.6;
/// Share of users that are polluters (they only serve fakes).
const POLLUTER_SHARE: f64 = 0.02;
/// Chance that a download of a polluted title lands on the fake.
const FAKE_HIT: f64 = 0.15;
/// Chance that a fake download is deleted shortly after.
const FAKE_DELETE: f64 = 0.8;
const VOTE_RATE: f64 = 0.4;
const RANK_RATE: f64 = 0.05;

/// The shape and the fixed knobs, for provenance.
pub fn describe(shape: &TrafficShape) -> String {
    format!(
        "{shape:?} activity_zipf={ACTIVITY_ZIPF} polluters={POLLUTER_SHARE} fake_hit={FAKE_HIT} \
         fake_delete={FAKE_DELETE} vote_rate={VOTE_RATE} rank_rate={RANK_RATE}"
    )
}

/// A seeded traffic source.
pub struct Traffic {
    shape: TrafficShape,
    rng: Rng,
    activity: Zipf,
    titles: Zipf,
    /// Activity rank → user id (honest users only).
    honest: Vec<UserId>,
    polluters: Vec<UserId>,
    /// Popularity rank → title id.
    title_ids: Vec<u64>,
    polluted: usize,
}

impl Traffic {
    pub fn new(shape: TrafficShape, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x7472_6166);
        let users = permutation(shape.users, &mut rng);
        let n_polluters = ((shape.users as f64 * POLLUTER_SHARE).round() as usize).max(1);
        let polluters = users[..n_polluters]
            .iter()
            .map(|&u| UserId::new(u))
            .collect();
        let honest: Vec<UserId> = users[n_polluters..]
            .iter()
            .map(|&u| UserId::new(u))
            .collect();
        let title_ids = permutation(shape.titles, &mut rng);
        Self {
            activity: Zipf::new(honest.len(), ACTIVITY_ZIPF),
            titles: Zipf::new(shape.titles, shape.title_zipf),
            polluted: (shape.titles as f64 * shape.polluted_titles).round() as usize,
            shape,
            rng,
            honest,
            polluters,
            title_ids,
        }
    }

    /// Each title's first publication: authentic titles by honest users,
    /// fake copies by polluters.
    pub fn publications(&mut self, time: SimTime) -> Vec<EngineEvent> {
        let mut out = Vec::with_capacity(self.shape.titles + self.polluted);
        for rank in 0..self.shape.titles {
            let user = self.honest[self.activity.sample(&mut self.rng)];
            let file = FileId::new(self.title_ids[rank]);
            out.push(EngineEvent::Publish { time, user, file });
        }
        for rank in 0..self.polluted {
            let user = self.polluters[rank % self.polluters.len()];
            out.push(EngineEvent::Publish {
                time,
                user,
                file: self.fake_of(rank),
            });
        }
        out
    }

    fn fake_of(&self, rank: usize) -> FileId {
        FileId::new(self.shape.titles as u64 + self.title_ids[rank])
    }

    /// Draws the next file request: `(downloader, file, uploader, fake)`.
    fn draw(&mut self) -> (UserId, FileId, UserId, bool) {
        let downloader = self.honest[self.activity.sample(&mut self.rng)];
        let rank = self.titles.sample(&mut self.rng);
        if rank < self.polluted && self.rng.chance(FAKE_HIT) {
            let uploader = self.polluters[rank % self.polluters.len()];
            return (downloader, self.fake_of(rank), uploader, true);
        }
        let mut uploader = self.honest[self.activity.sample(&mut self.rng)];
        if uploader == downloader {
            uploader = self.honest[(self.rng.below(self.honest.len() as u64)) as usize];
        }
        (
            downloader,
            FileId::new(self.title_ids[rank]),
            uploader,
            false,
        )
    }

    /// Appends one download episode stamped `time` — the download, then
    /// maybe a vote, a deletion (fakes, `delete_after` later) and a rating
    /// of the uploader. Every event of an episode has the downloader as its
    /// actor.
    pub fn episode(
        &mut self,
        time: SimTime,
        delete_after: SimDuration,
        out: &mut Vec<EngineEvent>,
    ) {
        let (downloader, file, uploader, fake) = self.draw();
        out.push(EngineEvent::Download {
            time,
            downloader,
            uploader,
            file,
            size: file_size(file),
        });
        if self.rng.chance(VOTE_RATE) {
            out.push(EngineEvent::Vote {
                time,
                user: downloader,
                file,
                value: opinion(&mut self.rng, fake),
            });
        }
        if fake && self.rng.chance(FAKE_DELETE) {
            out.push(EngineEvent::Delete {
                time: time + delete_after,
                user: downloader,
                file,
            });
        }
        if self.rng.chance(RANK_RATE) {
            out.push(EngineEvent::Rank {
                rater: downloader,
                target: uploader,
                value: opinion(&mut self.rng, fake),
            });
        }
    }

    /// `count` download requests for the read path: a viewer and a file
    /// drawn like downloads, with the file's evaluators from `owners`.
    pub fn read_requests(
        &mut self,
        count: usize,
        owners: &HashMap<FileId, Vec<OwnerEvaluation>>,
    ) -> Vec<(UserId, FileId)> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (viewer, file, _, _) = self.draw();
            if owners.contains_key(&file) {
                out.push((viewer, file));
            }
        }
        out
    }
}

/// A vote or rating: low for fakes, high for authentic files.
pub fn opinion(rng: &mut Rng, fake: bool) -> Evaluation {
    let u = rng.unit();
    Evaluation::clamped(if fake { 0.3 * u } else { 0.7 + 0.3 * u })
}

/// A file's size, fixed by its id (4–703 MiB).
pub fn file_size(file: FileId) -> FileSize {
    FileSize::from_mib(4 + file.as_u64().wrapping_mul(0x9e37_79b9) % 700)
}

/// The owner arrays a download decision sees: per file, up to `cap` of its
/// evaluators with their latest vote (or the retention verdict when they
/// never voted: a deletion reads 0, a kept file 1).
pub fn owner_arrays(events: &[EngineEvent], cap: usize) -> HashMap<FileId, Vec<OwnerEvaluation>> {
    let mut latest: HashMap<(FileId, UserId), Evaluation> = HashMap::new();
    let mut order: HashMap<FileId, Vec<UserId>> = HashMap::new();
    for event in events {
        let (file, user, value) = match *event {
            EngineEvent::Download {
                downloader, file, ..
            } => (file, downloader, None),
            EngineEvent::Vote {
                user, file, value, ..
            } => (file, user, Some(value)),
            EngineEvent::Delete { user, file, .. } => (file, user, Some(Evaluation::WORST)),
            _ => continue,
        };
        match latest.get_mut(&(file, user)) {
            Some(slot) => {
                if let Some(v) = value {
                    *slot = v;
                }
            }
            None => {
                latest.insert((file, user), value.unwrap_or(Evaluation::BEST));
                let list = order.entry(file).or_default();
                if list.len() < cap {
                    list.push(user);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|(file, users)| {
            let evals = users
                .into_iter()
                .map(|u| OwnerEvaluation::new(u, latest[&(file, u)]))
                .collect();
            (file, evals)
        })
        .collect()
}
