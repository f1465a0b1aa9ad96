import random
from collections import namedtuple

import pytest

from swig_toolkit import (
    BoundingBox,
    GroundedFrame,
    NounVocabulary,
    VerbLexicon,
    load_dataset,
    load_predictions,
)
from swig_toolkit.frame_model import frame_to_json

LEXICON_ROLES = {
    "kneading": ("Agent", "Item", "Place"),
    "jumping": ("Agent", "Place"),
    "carrying": ("Agent", "Item", "Tool", "Place"),
    "teaching": ("Agent", "Recipient", "Place"),
    "sitting": ("Agent", "Contact", "Place"),
}

NOUNS = ("man", "woman", "dough", "bread", "sofa", "table", "dog", "cat",
         "kitchen", "street", "classroom", "book", "bag", "student")


# test-local plain records with the attribute names `oracles.evaluate_naive` reads; the
# toolkit reads them only as files, written by `dataset_json` and `prediction_json`
Image = namedtuple("Image", "image_id width height verb annotator_frames gt_groundings")
Prediction = namedtuple("Prediction", "image_id verb_ranking frames")
Split = namedtuple("Split", "lexicon vocabulary images")


@pytest.fixture
def lexicon():
    return VerbLexicon(dict(LEXICON_ROLES))


@pytest.fixture
def vocabulary():
    return NounVocabulary(frozenset(NOUNS))


def make_box(rng, max_coord=100.0, min_side=5.0):
    x1 = rng.uniform(0, max_coord - min_side)
    y1 = rng.uniform(0, max_coord - min_side)
    return BoundingBox(
        x1, y1,
        rng.uniform(x1 + min_side, max_coord),
        rng.uniform(y1 + min_side, max_coord),
    )


def random_image(rng, lexicon, image_id, verb=None):
    verb = verb or rng.choice(sorted(lexicon.entries))
    roles = lexicon.roles(verb)
    frames = []
    for _ in range(3):
        values = tuple(
            (role, rng.choice(NOUNS) if rng.random() > 0.2 else "")
            for role in roles
        )
        frames.append(GroundedFrame(values, (None,) * len(roles)))
    gt = {}
    for role in roles:
        has_non_null = any(dict(f.role_values)[role] != "" for f in frames)
        if role != "Place" and has_non_null and rng.random() > 0.3:
            gt[role] = make_box(rng)
        else:
            gt[role] = None
    return Image(image_id, 100, 100, verb, tuple(frames), gt)


def random_dataset(rng, lexicon, vocabulary, n_verbs=3, images_per_verb=4):
    verbs = rng.sample(sorted(lexicon.entries), n_verbs)
    images = []
    for verb in verbs:
        for i in range(images_per_verb):
            images.append(random_image(rng, lexicon, f"{verb}_{i}.jpg", verb))
    return Split(lexicon, vocabulary, tuple(images))


def random_prediction(rng, lexicon, image, quality=0.5):
    """Prediction for one image; higher quality makes more things correct."""
    all_verbs = sorted(lexicon.entries)
    if rng.random() < quality:
        ranking = [image.verb] + [v for v in all_verbs if v != image.verb]
    else:
        others = [v for v in all_verbs if v != image.verb]
        rng.shuffle(others)
        insert_at = rng.randrange(1, len(others) + 1)
        ranking = others[:insert_at] + [image.verb] + others[insert_at:]
    frames = {}
    for verb in ranking[:2] + [image.verb]:
        roles = lexicon.roles(verb)
        values, boxes = [], []
        for idx, role in enumerate(roles):
            if verb == image.verb and rng.random() < quality:
                source = rng.choice(image.annotator_frames)
                noun = dict(source.role_values)[role]
                box = image.gt_groundings.get(role) if rng.random() < quality else None
            else:
                noun = rng.choice(NOUNS + ("",))
                box = make_box(rng) if rng.random() < 0.4 else None
            if noun == "" or role == "Place":
                box = None
            values.append((role, noun))
            boxes.append(box)
        frames[verb] = GroundedFrame(tuple(values), tuple(boxes))
    return Prediction(image.image_id, tuple(ranking), frames)


def perfect_prediction(image):
    """Matches an annotator noun on every role and mirrors the gt boxes."""
    values, boxes = [], []
    for role in image.annotator_frames[0].roles:
        annot = [dict(f.role_values)[role] for f in image.annotator_frames]
        gt_box = image.gt_groundings.get(role)
        if gt_box is not None:
            noun = next(n for n in annot if n != "")
        else:
            noun = annot[0]
        values.append((role, noun))
        boxes.append(gt_box if noun != "" else None)
    perfect = GroundedFrame(tuple(values), tuple(boxes))
    return Prediction(image.image_id, (image.verb,), {image.verb: perfect})


def dataset_json(image):
    """An Image in the dataset file form."""
    return {"id": image.image_id, "width": image.width, "height": image.height,
            "verb": image.verb, "frames": [dict(f.role_values) for f in image.annotator_frames],
            "boxes": {role: None if box is None else box.as_list()
                      for role, box in image.gt_groundings.items()}}


def prediction_json(prediction):
    """A Prediction in the prediction file form."""
    return {"id": prediction.image_id, "verbs": list(prediction.verb_ranking),
            "frames": {verb: frame_to_json(f) for verb, f in prediction.frames.items()}}


def load_split(split):
    """The DatasetTable of a Split, read from its file form."""
    return load_dataset([dataset_json(image) for image in split.images],
                        {verb: list(roles) for verb, roles in split.lexicon.entries.items()},
                        sorted(split.vocabulary.ids))


def load_preds(predictions, lexicon):
    """The PredictionTable of Predictions, read from their file form."""
    return load_predictions([prediction_json(p) for p in predictions], lexicon)


@pytest.fixture
def rng():
    return random.Random(20240817)
