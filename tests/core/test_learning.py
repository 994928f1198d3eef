"""BikeCAP must learn: validation MSE below last-frame persistence.

Every other check here would pass a model whose backward pass is broken,
as long as its forward runs. This one trains the smoke-profile BikeCAP on
the smoke-profile city, with MSE as the larger profiles use, and requires
its best validation MSE to fall below 0.85 x that of repeating the last
observed frame, within 30 epochs (about 3 s).

The learning rate, 1e-2, belongs to this check only: the smoke profile's
1e-3 needs more epochs than tier-1 can afford. Measured: 0.00071 at best,
against 0.00106 for persistence and 0.00178 for predicting zeros, the same
to five digits in float32 and float64.
"""

import numpy as np

from repro.city import simulate_city
from repro.data import dataset_from_city
from repro.experiments.profiles import PROFILES
from repro.pipeline import RunSpec, registry


def test_bikecap_beats_last_frame_persistence():
    profile = PROFILES["smoke"]
    dataset = dataset_from_city(
        simulate_city(profile.city),
        history=profile.history,
        horizon=profile.ablation_horizon,
        normalization_quantile=profile.normalization_quantile,
    )
    split = dataset.split
    last_frame = split.val_x[:, -1:, :, :, dataset.target_feature]
    persistence = float(
        np.mean((np.repeat(last_frame, dataset.horizon, axis=1) - split.val_y) ** 2)
    )
    spec = RunSpec(
        model="BikeCAP",
        history=profile.history,
        horizon=profile.ablation_horizon,
        epochs=30,
        hparams=dict(profile.model_overrides["BikeCAP"], loss="mse", lr=1e-2),
    )
    history = registry.build(spec, dataset).fit(dataset, epochs=spec.epochs)
    assert min(history["val_loss"]) < 0.85 * persistence
