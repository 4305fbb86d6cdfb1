//! The oracle against hand-computed cases.

use gts_benchmark::data::{Obj, Space};
use gts_benchmark::oracle::{distance, Hit, LiveSet};

fn v(x: f32, y: f32) -> Obj {
    Obj::Vector(vec![x, y])
}

fn t(s: &str) -> Obj {
    Obj::Text(s.into())
}

fn hit(id: u32, dist: f64) -> Hit {
    Hit { id, dist }
}

#[test]
fn distances_by_hand() {
    assert_eq!(distance(Space::TLoc, &v(0.0, 0.0), &v(3.0, 4.0)), 5.0);
    assert_eq!(distance(Space::Words, &t("kitten"), &t("sitting")), 3.0);
    assert_eq!(distance(Space::Words, &t(""), &t("abc")), 3.0);
    assert_eq!(distance(Space::Words, &t("flaw"), &t("lawn")), 2.0);
    let a = Obj::Vector(vec![1.0, 0.0, 0.0]);
    let b = Obj::Vector(vec![0.0, 1.0, 0.0]);
    let c = Obj::Vector(vec![-2.0, 0.0, 0.0]);
    assert!((distance(Space::Vector300, &a, &b) - 0.5).abs() < 1e-12);
    assert!((distance(Space::Vector300, &a, &c) - 1.0).abs() < 1e-12);
    assert!(distance(Space::Vector300, &a, &a).abs() < 1e-7);
}

/// Points on a line at x = 0, 1, 2, 3, 4 and a duplicate of x = 1.
fn line() -> LiveSet {
    let data: Vec<Obj> = [0.0, 1.0, 2.0, 3.0, 4.0, 1.0]
        .iter()
        .map(|&x| v(x, 0.0))
        .collect();
    LiveSet::new(Space::TLoc, &data)
}

#[test]
fn knn_accepts_the_right_answer_and_either_side_of_a_tie() {
    let live = line();
    let q = v(0.9, 0.0);
    // True 3-NN: ids 1 and 5 at 0.1 (a tie), then id 0 at 0.9.
    let d = |x: f64| (x - f64::from(0.9f32)).abs();
    let right = [hit(1, d(1.0)), hit(5, d(1.0)), hit(0, d(0.0))];
    assert_eq!(live.check_knn(&q, 3, &right), Ok(()));
    // With k = 1 either of the tied ids is a correct answer.
    assert_eq!(live.check_knn(&q, 1, &[hit(1, d(1.0))]), Ok(()));
    assert_eq!(live.check_knn(&q, 1, &[hit(5, d(1.0))]), Ok(()));
}

#[test]
fn knn_rejects_wrong_answers() {
    let live = line();
    let q = v(0.9, 0.0);
    let d = |x: f64| (x - f64::from(0.9f32)).abs();
    // A farther object in place of a nearer one.
    let missed = [hit(1, d(1.0)), hit(5, d(1.0)), hit(2, d(2.0))];
    assert!(live
        .check_knn(&q, 3, &missed)
        .unwrap_err()
        .contains("rank 2"));
    // The right ids at a made-up distance.
    let lied = [hit(1, 0.05)];
    assert!(live
        .check_knn(&q, 1, &lied)
        .unwrap_err()
        .contains("lies at"));
    // Too few, a duplicate, an unknown id, out of order.
    assert!(live
        .check_knn(&q, 3, &right_prefix(2, d))
        .unwrap_err()
        .contains("expected 3"));
    assert!(live
        .check_knn(&q, 2, &[hit(1, d(1.0)), hit(1, d(1.0))])
        .unwrap_err()
        .contains("twice"));
    assert!(live
        .check_knn(&q, 1, &[hit(77, 0.1)])
        .unwrap_err()
        .contains("not a live"));
    assert!(live
        .check_knn(&q, 2, &[hit(0, d(0.0)), hit(1, d(1.0))])
        .unwrap_err()
        .contains("order"));
}

fn right_prefix(n: usize, d: impl Fn(f64) -> f64) -> Vec<Hit> {
    [hit(1, d(1.0)), hit(5, d(1.0)), hit(0, d(0.0))][..n].to_vec()
}

#[test]
fn k_beyond_the_live_count_returns_everything() {
    let data = [v(0.0, 0.0), v(1.0, 0.0)];
    let live = LiveSet::new(Space::TLoc, &data);
    let answer = [hit(0, 0.0), hit(1, 1.0)];
    assert_eq!(live.check_knn(&v(0.0, 0.0), 8, &answer), Ok(()));
}

#[test]
fn range_counts_hits_and_checks_the_radius() {
    let live = line();
    let q = v(2.0, 0.0);
    let right = [hit(2, 0.0), hit(1, 1.0), hit(3, 1.0), hit(5, 1.0)];
    assert_eq!(live.check_range(&q, 1.5, &right), Ok(()));
    assert!(live
        .check_range(&q, 1.5, &right[..3])
        .unwrap_err()
        .contains("3 hits"));
    let outside = [hit(2, 0.0), hit(0, 2.0)];
    assert!(live
        .check_range(&q, 1.5, &outside)
        .unwrap_err()
        .contains("exceeds"));
    // A vector exactly on the boundary may fall either side of a rounding
    // error, so it may be reported or not.
    assert_eq!(live.check_range(&q, 1.0, &right), Ok(()));
    assert_eq!(live.check_range(&q, 1.0, &right[..3]), Ok(()));
    assert_eq!(live.check_range(&q, 0.5, &[hit(2, 0.0)]), Ok(()));
}

#[test]
fn edit_range_on_words() {
    let data = [t("cat"), t("cart"), t("dog"), t("cot")];
    let live = LiveSet::new(Space::Words, &data);
    let right = [hit(0, 0.0), hit(1, 1.0), hit(3, 1.0)];
    assert_eq!(live.check_range(&t("cat"), 1.0, &right), Ok(()));
    assert!(live.check_range(&t("cat"), 1.0, &right[..2]).is_err());
}

#[test]
fn updates_move_the_live_set() {
    let mut live = line();
    assert_eq!(live.insert(v(0.95, 0.0)), 6, "ids are handed out in order");
    assert!(live.remove(1));
    assert!(!live.remove(1), "a second removal is a no-op");
    assert!(!live.remove(99), "so is an unknown id");
    assert_eq!(live.live_count(), 6);
    assert_eq!(live.assigned(), 7);
    let q = v(0.9, 0.0);
    let d = |x: f32| f64::from((x - 0.9f32).abs());
    // Nearest is now the inserted object; removed id 1 may not appear.
    let d6 = (f64::from(0.95f32) - f64::from(0.9f32)).abs();
    let d5 = (1.0 - f64::from(0.9f32)).abs();
    assert_eq!(live.check_knn(&q, 2, &[hit(6, d6), hit(5, d5)]), Ok(()));
    assert!(live
        .check_knn(&q, 2, &[hit(6, d6), hit(1, d5)])
        .unwrap_err()
        .contains("not a live"));
    let _ = d;
}
