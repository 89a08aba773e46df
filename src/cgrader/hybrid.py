"""Neural feature extractor + random forest head.

The net is trained on its own first (the forest alone provides no gradient
signal); its dense head is then ignored and the forest is fitted on the
frozen intermediate features — the CNN's flatten output or the LSTM's final
hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tabular
from .neural import CnnRegressor, LstmRegressor
from .tabular import ForestModel


@dataclass
class HybridModel:
    feature_net: CnnRegressor | LstmRegressor
    head: ForestModel


def hybrid_fit(net: CnnRegressor | LstmRegressor, X_train: np.ndarray,
               y_train: np.ndarray, **forest) -> HybridModel:
    """Fit a forest head on the features of the trained `net`, which stays as it is;
    `forest` holds `tabular.rf_fit`'s keyword arguments, whose defaults are the head's."""
    try:
        features = net.features(X_train)
        head = tabular.rf_fit(features, y_train, **forest)
    except Exception as exc:
        raise RuntimeError(f"forest head fit failed: {exc}") from exc
    return HybridModel(net, head)


def hybrid_predict(model: HybridModel, X: np.ndarray) -> np.ndarray:
    features = model.feature_net.features(X)
    return tabular.rf_predict(model.head, features)
