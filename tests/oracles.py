"""Reference implementations used to cross-check the library.

Everything in this file is written the slow, obvious way on purpose:
lattice enumeration for areas, set arithmetic for intervals, explicit
loops for suppression, literal formulas elsewhere.  None of it shares
code with the package under test beyond the value types.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from actiontubes.model import BoundingBox, Detection, FrameInterval, Source


def lattice_cells(box: BoundingBox) -> set[tuple[int, int]]:
    """Unit cells covered by an integer-coordinate box."""
    return {(i, j)
            for i in range(int(box.x_min), int(box.x_max))
            for j in range(int(box.y_min), int(box.y_max))}


def lattice_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Exact IOU of integer boxes by counting unit cells."""
    ca, cb = lattice_cells(a), lattice_cells(b)
    inter = len(ca & cb)
    union = len(ca | cb)
    return float(Fraction(inter, union))


def interval_iou_sets(a: FrameInterval, b: FrameInterval) -> float:
    """Temporal IOU via explicit frame sets."""
    sa, sb = set(a.frames()), set(b.frames())
    if not sa & sb:
        return 0.0
    return float(Fraction(len(sa & sb), len(sa | sb)))


def st_iou_reference(a, b) -> float:
    """Definitional spatio-temporal IOU over integer-coordinate tubes."""
    sa = set(a.interval().frames())
    sb = set(b.interval().frames())
    common = sorted(sa & sb)
    if not common:
        return 0.0
    temporal = len(sa & sb) / len(sa | sb)
    spatial = sum(lattice_iou(a.box_at(f), b.box_at(f)) for f in common)
    return temporal * (spatial / len(common))


def float_iou(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area() + b.area() - inter)


def nms_reference(detections: list[Detection], class_index: int,
                  threshold: float) -> list[Detection]:
    """Exhaustive greedy suppression, recomputed pair by pair."""
    def order(d: Detection):
        return (-d.class_scores[class_index], -d.box.area(),
                d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)

    remaining = list(detections)
    kept: list[Detection] = []
    while remaining:
        remaining.sort(key=order)
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining
                     if float_iou(best.box, d.box) <= threshold]
    return kept


def recurrent_reference(features, w_io, w_hh, b_y, activation,
                        w_cls, b_cls):
    """Step-by-step recurrent forward pass with plain matrix math."""
    def act(v):
        if activation == "tanh":
            return np.tanh(v)
        if activation == "relu":
            return np.maximum(v, 0.0)
        if activation == "logistic":
            return 1.0 / (1.0 + np.exp(-v))
        raise ValueError(activation)

    w_io, w_hh, b_y, w_cls, b_cls = (np.asarray(a, dtype=np.float64) for a
                                     in (w_io, w_hh, b_y, w_cls, b_cls))
    y = np.zeros(w_io.shape[0])
    out = []
    for x in features:
        y = act(w_io @ np.asarray(x, dtype=np.float64) + w_hh @ y + b_y)
        logits = w_cls @ y + b_cls
        e = np.exp(logits - np.max(logits))
        out.append(e / np.sum(e))
    return out


def fisher_reference(descriptors, weights, means, variances):
    """Literal Fisher vector formula, one component at a time."""
    x = np.asarray(descriptors, dtype=np.float64)
    n, d = x.shape
    k = len(weights)
    post = np.zeros((n, k))
    for i in range(n):
        lik = np.zeros(k)
        for j in range(k):
            diff = x[i] - means[j]
            expo = -0.5 * np.sum(diff * diff / variances[j])
            norm = (2.0 * math.pi) ** (-d / 2.0) / math.sqrt(
                np.prod(variances[j]))
            lik[j] = weights[j] * norm * math.exp(expo)
        post[i] = lik / np.sum(lik)
    mean_blocks = []
    var_blocks = []
    for j in range(k):
        sigma = np.sqrt(variances[j])
        gm = np.zeros(d)
        gv = np.zeros(d)
        for i in range(n):
            u = (x[i] - means[j]) / sigma
            gm += post[i, j] * u
            gv += post[i, j] * (u * u - 1.0)
        mean_blocks.append(gm / (n * math.sqrt(weights[j])))
        var_blocks.append(gv / (n * math.sqrt(2.0 * weights[j])))
    fv = np.concatenate(mean_blocks + var_blocks)
    fv = np.sign(fv) * np.sqrt(np.abs(fv))
    norm = np.linalg.norm(fv)
    if norm > 0:
        fv = fv / norm
    return fv


def ap_reference(outcomes: list[bool], num_gt: int) -> float:
    """All-point interpolated AP from a ranked TP/FP outcome list.

    Walks every rank, records (recall, precision), then integrates the
    precision envelope by scanning for the max precision at or beyond
    each recall level.
    """
    if num_gt == 0:
        return 0.0
    points = []
    tp = fp = 0
    for is_tp in outcomes:
        if is_tp:
            tp += 1
        else:
            fp += 1
        points.append((tp / num_gt, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for idx, (recall, _) in enumerate(points):
        if recall == prev_recall:
            continue
        best = max(p for r, p in points if r >= recall)
        ap += (recall - prev_recall) * best
        prev_recall = recall
    return ap


def softmax_reference(values):
    v = np.asarray(values, dtype=np.float64)
    e = np.exp(v - np.max(v))
    return e / np.sum(e)


def greedy_match_reference(preds, truth, sigma, overlap):
    """Greedy TP/FP matching, one prediction at a time.

    preds are (group, label, score, payload) and truth (group, label,
    payload) tuples, a group being a video or a (video, frame) pair;
    overlap(payload, payload) is the measure.  Predictions go by
    descending score, earlier input first on equal scores.  Each takes
    the unclaimed same-group, same-label item whose overlap is highest
    and strictly above sigma, the earliest one on equal overlaps.
    Returns the (prediction index, truth index or None) pairs in that
    order and the claimed flag of every truth item.
    """
    ranked = []
    for i, pred in enumerate(preds):
        at = len(ranked)
        while at > 0 and preds[ranked[at - 1]][2] < pred[2]:
            at -= 1
        ranked.insert(at, i)
    claimed = [False] * len(truth)
    pairs = []
    for i in ranked:
        group, label, _, payload = preds[i]
        open_items = [j for j, (g, lab, _) in enumerate(truth)
                      if g == group and lab == label and not claimed[j]]
        overlaps = {j: overlap(payload, truth[j][2]) for j in open_items}
        above = {j: ov for j, ov in overlaps.items() if ov > sigma}
        if not above:
            pairs.append((i, None))
            continue
        best = max(above.values())
        j = min(j for j, ov in above.items() if ov == best)
        claimed[j] = True
        pairs.append((i, j))
    return pairs, claimed


def recall_track_reference(tubes, truth, sigma, overlap) -> float:
    """Share of truth tubes some same-video, same-label tube overlaps by
    at least sigma; 1.0 without truth."""
    if not truth:
        return 1.0
    covered = 0
    for gt in truth:
        if any(t.video_id == gt.video_id and t.label == gt.label
               and overlap(t, gt) >= sigma for t in tubes):
            covered += 1
    return covered / len(truth)


def false_split_reference(tubes, truth, sigma, floor, overlap):
    """(false_cls, false_bbox, false_neg, true positives) of scored
    tubes, each frame of a tube one prediction with its label and score.

    A false positive whose best overlap with a box on its frame, of any
    class and the earliest on equal overlaps, reaches sigma under
    another label is false_cls, any other false_bbox.  An unclaimed
    truth box no prediction on its frame overlaps by at least floor is
    false_neg.
    """
    items = [((gt.video_id, frame), gt.label, box)
             for gt in truth for frame, box in gt.iter_frames()]
    preds = [((t.video_id, t.start + k), t.label, t.score, box)
             for t in tubes for k, box in enumerate(t.boxes)]
    pairs, claimed = greedy_match_reference(preds, items, sigma, overlap)
    false_cls = false_bbox = 0
    for i, j in pairs:
        if j is not None:
            continue
        group, label, _, box = preds[i]
        here = [k for k, item in enumerate(items) if item[0] == group]
        overlaps = [overlap(box, items[k][2]) for k in here]
        best = max(overlaps, default=0.0)
        if best >= sigma and items[here[overlaps.index(best)]][1] != label:
            false_cls += 1
        else:
            false_bbox += 1
    false_neg = 0
    for k, (group, _, box) in enumerate(items):
        if not claimed[k] and all(overlap(p[3], box) < floor
                                  for p in preds if p[0] == group):
            false_neg += 1
    tp = sum(1 for _, j in pairs if j is not None)
    return false_cls, false_bbox, false_neg, tp


def st_iou_float_reference(a, b) -> float:
    """Spatio-temporal IOU in floating point, from the definition.

    The temporal part is the shared frame count over the union frame
    count, from frame sets; the spatial part adds ``float_iou`` over the
    shared frames, one at a time in frame order, and divides by their
    count.  Float boxes are allowed, unlike ``st_iou_reference``.
    """
    sa = set(a.interval().frames())
    sb = set(b.interval().frames())
    common = sorted(sa & sb)
    if not common:
        return 0.0
    spatial = 0.0
    for f in common:
        spatial += float_iou(a.box_at(f), b.box_at(f))
    return len(common) / len(sa | sb) * (spatial / len(common))


def prune_overlapped_reference(tubes, threshold):
    """Greedy overlap pruning over all pairs.

    Tubes are visited by descending score, earlier input first on equal
    scores.  A tube is dropped when its spatio-temporal IOU with some
    tube kept before it, of the same video and of any label, is strictly
    above threshold; otherwise it is kept.  Returns the kept tubes in
    visiting order.
    """
    ranked = []
    for i, tube in enumerate(tubes):
        at = len(ranked)
        while at > 0 and tubes[ranked[at - 1]].score < tube.score:
            at -= 1
        ranked.insert(at, i)
    kept = []
    for i in ranked:
        tube = tubes[i]
        if all(k.video_id != tube.video_id
               or st_iou_float_reference(k, tube) <= threshold
               for k in kept):
            kept.append(tube)
    return kept


def flow_grids_float64(config, video_index, gt_tubes):
    """One video's flow magnitude grids in float64, never rounded: the
    values ``synth.video_flow`` draws before it rounds them to float32,
    and the grids a ``flow.atb`` of code-0 arrays holds.

    The random stream is keyed as synth keys it, by (seed, the flow-grid
    stream, video index); every draw is made in the same order.
    """
    from actiontubes.scenario import _FLOW_GRID
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (config.seed, _FLOW_GRID, video_index))))
    w, h = config.frame_size
    for frame in range(config.frames_per_video):
        grid = rng.uniform(0.0, 0.2, (h, w))
        for gt in gt_tubes:
            end = gt.start + len(gt.boxes)
            if not gt.start <= frame < end:
                continue
            box = gt.boxes[frame - gt.start]
            other = frame + 1 if frame + 1 < end else frame - 1
            if gt.start <= other < end:
                near = gt.boxes[other - gt.start]
                disp = math.hypot(
                    (box.x_min + box.x_max) / 2
                    - (near.x_min + near.x_max) / 2,
                    (box.y_min + box.y_max) / 2
                    - (near.y_min + near.y_max) / 2)
            else:
                disp = 0.0
            x0 = max(0, math.floor(box.x_min))
            y0 = max(0, math.floor(box.y_min))
            x1 = min(w, math.ceil(box.x_max))
            y1 = min(h, math.ceil(box.y_max))
            grid[y0:y1, x0:x1] = disp + rng.uniform(0.0, 0.2,
                                                    (y1 - y0, x1 - x0))
        yield frame, grid


def localize_reference(tube, clips, tau):
    """The ``(start, end)`` frames trimming keeps of a labeled tube, or
    None when it removes the tube.

    Clips are dropped one at a time from the front while the first
    one's score for the tube's label is below tau, then from the back
    while the last one's is; what the remaining clips cover is kept.
    """
    spans = [(interval.start, interval.end, scores[tube.label])
             for interval, scores in zip(clips.intervals, clips.scores)]
    while spans and spans[0][2] < tau:
        spans.pop(0)
    while spans and spans[-1][2] < tau:
        spans.pop()
    if not spans:
        return None
    return spans[0][0], spans[-1][1]


def cells_overlapping_reference(map_side, box, frame_size):
    """Row-major indices of the cells of a ``map_side`` square map over
    the frame that share positive area with ``box``, in exact
    arithmetic: the overlap of the two x ranges and of the two y ranges
    must both be longer than zero."""
    width, height = (Fraction(v) for v in frame_size)
    x0, y0, x1, y1 = (Fraction(v) for v in
                      (box.x_min, box.y_min, box.x_max, box.y_max))
    cells = []
    for r in range(map_side):
        for c in range(map_side):
            cx0, cx1 = width * c / map_side, width * (c + 1) / map_side
            cy0, cy1 = height * r / map_side, height * (r + 1) / map_side
            if min(x1, cx1) - max(x0, cx0) > 0 \
                    and min(y1, cy1) - max(y0, cy0) > 0:
                cells.append(r * map_side + c)
    return cells


def prune_drifted_reference(tubes, weights, map_side, frame_size):
    """The tubes footprint pruning keeps, in input order.

    A tube's mean box averages each coordinate over its frames, exactly.
    The tube is kept when the mean of its label's weights over the cells
    that box overlaps is at least the mean over all cells; a mean box
    overlapping no cell, off the frame, drops the tube.
    """
    kept = []
    for tube in tubes:
        n = len(tube.boxes)
        mean = BoundingBox(*(
            sum(Fraction(getattr(b, name)) for b in tube.boxes) / n
            for name in ("x_min", "y_min", "x_max", "y_max")))
        cells = cells_overlapping_reference(map_side, mean, frame_size)
        row = [Fraction(w) for w in weights[tube.label]]
        if cells and sum(row[k] for k in cells) / len(cells) \
                >= sum(row) / len(row):
            kept.append(tube)
    return kept


def pixel_mean_reference(box, rows):
    """The mean of the pixels whose centres lie strictly inside ``box``,
    or None when no centre does.

    ``rows`` is the grid as a list of rows of floats; the pixel in
    column ``i`` of row ``j`` has its centre at ``(i + 0.5, j + 0.5)``.
    The pixels are summed exactly, and the sum divided by their count
    is rounded once to a float, as a float64 sum that makes no rounding
    error divides.
    """
    x0, y0, x1, y1 = (Fraction(v) for v in box.as_tuple())
    inside = [Fraction(value)
              for j, row in enumerate(rows)
              for i, value in enumerate(row)
              if x0 < Fraction(2 * i + 1, 2) < x1
              and y0 < Fraction(2 * j + 1, 2) < y1]
    return float(sum(inside) / len(inside)) if inside else None


def saliency_prune_reference(proposals, rows, threshold):
    """The proposals saliency pruning keeps, in input order: those with
    some pixel centre inside whose pixel mean reaches ``threshold``."""
    kept = []
    for prop in proposals:
        mean = pixel_mean_reference(prop.box, rows)
        if mean is not None and mean >= threshold:
            kept.append(prop)
    return kept


def _exact_overlap(a, b) -> float:
    """Box IoU computed exactly, then rounded once to a float."""
    ax0, ay0, ax1, ay1 = (Fraction(v) for v in a.as_tuple())
    bx0, by0, bx1, by1 = (Fraction(v) for v in b.as_tuple())
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return float(inter / union)


def _first_argmax(scores) -> int:
    """The lowest index holding the highest score."""
    return list(scores).index(max(scores))


def _area(box) -> Fraction:
    return (Fraction(box.x_max) - Fraction(box.x_min)) \
        * (Fraction(box.y_max) - Fraction(box.y_min))


def _coords(box) -> tuple:
    return (box.x_min, box.y_min, box.x_max, box.y_max)


def grow_tubes_reference(video_id, detections_by_frame, proposals_by_frame,
                         extent, scorer, *, consume_overlap, max_predicted_run,
                         matcher=None, min_match_ratio=0.0,
                         min_prev_overlap=0.0, search_radius=None):
    """The tubes either tracker grows, one decision at a time.

    With ``matcher`` this is the point-matching tracker, else the
    center-search baseline with ``search_radius``.  Each tube is
    returned as ``(tube_id, start, boxes, class_scores, sources,
    label)``, boxes as coordinate tuples.

    - Seeds: the untracked detection with the highest score seeds the
      next tube; ties go to the earlier frame, then the larger box, then
      the smaller ``(x_min, y_min, x_max, y_max)``, then the earlier
      detection (frames ascending, each frame's list in order).  The
      seed leaves the pool as it is.
    - Growth: forward frame by frame to the end of ``extent``, then
      backward to its start, each direction from the seed.
    - Candidates (point matching): the matcher's rows from the current
      entry's frame and box to the next frame; with none, growth stops.
      A proposal is a candidate when its overlap with the current box
      is at least ``min_prev_overlap`` and the share of rows whose
      to-point lies in it (edges included) at least
      ``min_match_ratio``.  (Center search): proposals whose center is
      within ``search_radius`` of the current box's center, edge
      included.  No candidate stops growth.
    - Choice: the candidate scoring highest for the class (the seed's
      class when point matching, the current entry's class in center
      search); ties go to the larger box, then the smaller coordinates,
      then the earlier proposal.
    - Consumption: of the untracked detections on that frame with that
      class and an overlap with the chosen box of at least
      ``consume_overlap``, the one with the highest overlap, then the
      higher score, the larger box, the smaller coordinates, the earlier
      detection joins the tube as ``MERGED`` and leaves the pool.
      Without one, the chosen box joins as ``TRACKED`` with the
      scorer's class vector, its class being that vector's first
      maximum.
    - A ``TRACKED`` entry that would make more than
      ``max_predicted_run`` of them in a row stops growth instead.
    - Tube ids are ``t000``, ``t001``, … in seeding order, and a tube
      keeps its seed's class.
    """
    pool = []  # [detection, still untracked], in input order
    for frame in sorted(detections_by_frame):
        for det in detections_by_frame[frame]:
            pool.append([det, True])

    def seeds_before(a, b) -> bool:
        """Whether pool entry ``a`` seeds before pool entry ``b``."""
        da, db = pool[a][0], pool[b][0]
        sa, sb = max(da.class_scores), max(db.class_scores)
        if sa != sb:
            return sa > sb
        if da.frame_index != db.frame_index:
            return da.frame_index < db.frame_index
        if _area(da.box) != _area(db.box):
            return _area(da.box) > _area(db.box)
        if _coords(da.box) != _coords(db.box):
            return _coords(da.box) < _coords(db.box)
        return a < b

    def candidates(current, frame):
        proposals = list(proposals_by_frame.get(frame, ()))
        _, box, _, _, _ = current
        if matcher is None:
            cx = (Fraction(box.x_min) + Fraction(box.x_max)) / 2
            cy = (Fraction(box.y_min) + Fraction(box.y_max)) / 2
            kept = []
            for prop in proposals:
                px = (Fraction(prop.box.x_min) + Fraction(prop.box.x_max)) / 2
                py = (Fraction(prop.box.y_min) + Fraction(prop.box.y_max)) / 2
                if (px - cx) ** 2 + (py - cy) ** 2 \
                        <= Fraction(search_radius) ** 2:
                    kept.append(prop)
            return kept
        rows = [tuple(row) for row in
                matcher.match(video_id, current[0], frame, box)]
        if not rows:
            return []
        kept = []
        for prop in proposals:
            b = prop.box
            inside = sum(1 for _, _, x, y in rows
                         if b.x_min <= x <= b.x_max and b.y_min <= y <= b.y_max)
            if _exact_overlap(b, box) >= min_prev_overlap \
                    and inside / len(rows) >= min_match_ratio:
                kept.append(prop)
        return kept

    def choose(cands, label, frame):
        best = None
        for prop in cands:
            scores = tuple(float(v) for v in
                           scorer.class_scores(video_id, frame, prop.box))
            if best is None:
                best = (prop.box, scores)
                continue
            box, top = best
            mine, theirs = scores[label], top[label]
            if mine != theirs:
                better = mine > theirs
            elif _area(prop.box) != _area(box):
                better = _area(prop.box) > _area(box)
            else:
                better = _coords(prop.box) < _coords(box)
            if better:
                best = (prop.box, scores)
        return best

    def consume(box, label, frame):
        best = None
        for i, (det, alive) in enumerate(pool):
            if not alive or det.frame_index != frame \
                    or _first_argmax(det.class_scores) != label:
                continue
            overlap = _exact_overlap(box, det.box)
            if overlap < consume_overlap:
                continue
            rank = (overlap, max(det.class_scores), _area(det.box))
            if best is None:
                best = (i, rank)
                continue
            top = pool[best[0]][0]
            if rank != best[1]:
                better = rank > best[1]
            else:
                better = _coords(det.box) < _coords(top.box)
            if better:
                best = (i, rank)
        if best is None:
            return None
        pool[best[0]][1] = False
        return pool[best[0]][0]

    def grow(seed_entry, frames):
        grown = []
        current = seed_entry
        in_a_row = 0
        for frame in frames:
            label = seed_entry[4] if matcher is not None else current[4]
            cands = candidates(current, frame)
            if not cands:
                break
            box, scores = choose(cands, label, frame)
            det = consume(box, label, frame)
            if det is not None:
                entry = (frame, det.box, det.class_scores, Source.MERGED,
                         label)
                in_a_row = 0
            else:
                if in_a_row + 1 > max_predicted_run:
                    break
                entry = (frame, box, scores, Source.TRACKED,
                         _first_argmax(scores))
                in_a_row += 1
            grown.append(entry)
            current = entry
        return grown

    tubes = []
    while True:
        alive = [i for i, (_, on) in enumerate(pool) if on]
        if not alive:
            return tubes
        first = alive[0]
        for i in alive[1:]:
            if seeds_before(i, first):
                first = i
        pool[first][1] = False
        seed = pool[first][0]
        seed_entry = (seed.frame_index, seed.box, seed.class_scores,
                      seed.source, _first_argmax(seed.class_scores))
        forward = grow(seed_entry,
                       range(seed.frame_index + 1, extent.end))
        backward = grow(seed_entry,
                        range(seed.frame_index - 1, extent.start - 1, -1))
        entries = backward[::-1] + [seed_entry] + forward
        tubes.append((f"t{len(tubes):03d}", entries[0][0],
                      tuple(_coords(e[1]) for e in entries),
                      tuple(tuple(e[2]) for e in entries),
                      tuple(e[3] for e in entries), seed_entry[4]))
