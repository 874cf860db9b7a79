"""The paper's reported numbers, used as reference columns in every harness.

All values are transcribed from the tables and figures of "The Larger The
Fairer?" (DAC 2022).  They are *targets for shape comparison* -- the
reproduction's absolute numbers come from a synthetic dataset and an analytic
latency model, so only orderings and rough ratios are expected to match.
"""

from __future__ import annotations

from typing import Dict

# Table 3 -- parameters / accuracy / per-group accuracy / unfairness / reward,
# storage (MB), latency on Raspberry Pi and Odroid XU-4 (ms).
TABLE3: Dict[str, Dict[str, float]] = {
    "MobileNetV2": {
        "group": 1, "params": 2_230_277, "accuracy": 0.8105, "light": 0.8127,
        "dark": 0.5802, "unfairness": 0.2325, "reward": 0.58, "storage_mb": 8.51,
        "latency_pi_ms": 1939.40, "latency_odroid_ms": 4264.55, "meets_ac": True,
    },
    "ProxylessNAS(M)": {
        "group": 1, "params": 2_805_917, "accuracy": 0.8127, "light": 0.8156,
        "dark": 0.5062, "unfairness": 0.3094, "reward": 0.50, "storage_mb": 10.70,
        "latency_pi_ms": 5241.51, "latency_odroid_ms": 8784.53, "meets_ac": True,
    },
    "MnasNet 0.5": {
        "group": 1, "params": 943_917, "accuracy": 0.7812, "light": 0.7854,
        "dark": 0.3333, "unfairness": 0.4521, "reward": -1.00, "storage_mb": 3.60,
        "latency_pi_ms": 714.19, "latency_odroid_ms": 2312.05, "meets_ac": False,
    },
    "MobileNetV3(S)": {
        "group": 1, "params": 1_522_981, "accuracy": 0.8038, "light": 0.8068,
        "dark": 0.4815, "unfairness": 0.3253, "reward": -1.00, "storage_mb": 5.81,
        "latency_pi_ms": 658.84, "latency_odroid_ms": 1954.14, "meets_ac": False,
    },
    "MnasNet 1.0": {
        "group": 1, "params": 3_108_717, "accuracy": 0.8071, "light": 0.8098,
        "dark": 0.5185, "unfairness": 0.2913, "reward": -1.00, "storage_mb": 11.86,
        "latency_pi_ms": 3855.72, "latency_odroid_ms": 7033.29, "meets_ac": False,
    },
    "FaHaNa-Small": {
        "group": 1, "params": 422_341, "accuracy": 0.8128, "light": 0.8146,
        "dark": 0.6173, "unfairness": 0.1973, "reward": 0.62, "storage_mb": 1.61,
        "latency_pi_ms": 337.30, "latency_odroid_ms": 736.22, "meets_ac": True,
    },
    "ResNet-50": {
        "group": 2, "params": 23_518_277, "accuracy": 0.8381, "light": 0.8398,
        "dark": 0.6543, "unfairness": 0.1855, "reward": 0.65, "storage_mb": 89.72,
        "latency_pi_ms": 1063.61, "latency_odroid_ms": 5750.42, "meets_ac": True,
    },
    "ResNet-18": {
        "group": 2, "params": 11_179_077, "accuracy": 0.8308, "light": 0.8328,
        "dark": 0.6173, "unfairness": 0.2155, "reward": 0.62, "storage_mb": 42.64,
        "latency_pi_ms": 425.90, "latency_odroid_ms": 1373.16, "meets_ac": True,
    },
    "ResNet-34": {
        "group": 2, "params": 21_287_237, "accuracy": 0.8301, "light": 0.8323,
        "dark": 0.5926, "unfairness": 0.2397, "reward": 0.59, "storage_mb": 81.20,
        "latency_pi_ms": 621.87, "latency_odroid_ms": 2829.22, "meets_ac": True,
    },
    "ProxylessNAS(G)": {
        "group": 2, "params": 5_399_493, "accuracy": 0.8321, "light": 0.8346,
        "dark": 0.5679, "unfairness": 0.2667, "reward": 0.57, "storage_mb": 20.60,
        "latency_pi_ms": 3714.44, "latency_odroid_ms": 9426.17, "meets_ac": True,
    },
    "MobileNetV3(L)": {
        "group": 2, "params": 4_208_437, "accuracy": 0.7958, "light": 0.8000,
        "dark": 0.3457, "unfairness": 0.4543, "reward": -1.00, "storage_mb": 16.05,
        "latency_pi_ms": 2668.00, "latency_odroid_ms": 4824.40, "meets_ac": False,
    },
    "FaHaNa-Fair": {
        "group": 2, "params": 5_502_469, "accuracy": 0.8406, "light": 0.8422,
        "dark": 0.6667, "unfairness": 0.1755, "reward": 0.67, "storage_mb": 20.99,
        "latency_pi_ms": 606.80, "latency_odroid_ms": 1833.76, "meets_ac": True,
    },
}

# Table 1 -- models under a 30 MB storage budget on the Raspberry Pi with
# TC = 1500 ms.
TABLE1: Dict[str, Dict[str, float]] = {
    "SqueezeNet 1.0": {
        "latency_pi_ms": 122.92, "storage_mb": 2.77, "accuracy": 0.1565,
        "unfairness": 0.2159, "meets_spec": True,
    },
    "MobileNetV3(S)": {
        "latency_pi_ms": 658.84, "storage_mb": 5.81, "accuracy": 0.8038,
        "unfairness": 0.3253, "meets_spec": True,
    },
    "MnasNet 0.5": {
        "latency_pi_ms": 714.19, "storage_mb": 3.60, "accuracy": 0.7812,
        "unfairness": 0.4521, "meets_spec": True,
    },
    "MobileNetV2": {
        "latency_pi_ms": 1939.40, "storage_mb": 8.51, "accuracy": 0.8105,
        "unfairness": 0.2325, "meets_spec": False,
    },
    "ProxylessNAS(G)": {
        "latency_pi_ms": 3714.44, "storage_mb": 20.60, "accuracy": 0.8321,
        "unfairness": 0.2667, "meets_spec": False,
    },
    "MnasNet 1.0": {
        "latency_pi_ms": 3855.72, "storage_mb": 11.86, "accuracy": 0.8071,
        "unfairness": 0.2913, "meets_spec": False,
    },
    "ProxylessNAS(M)": {
        "latency_pi_ms": 5241.51, "storage_mb": 10.70, "accuracy": 0.8127,
        "unfairness": 0.3094, "meets_spec": False,
    },
}

# Figure 2 -- unfairness across architectures (subset also appears in Table 3).
FIGURE2_UNFAIRNESS: Dict[str, float] = {
    "MnasNet 0.5": 0.4521,
    "ProxylessNAS(M)": 0.3094,
    "MobileNetV3(S)": 0.3253,
    "ProxylessNAS(G)": 0.2667,
    "MnasNet 1.0": 0.2913,
    "MobileNetV2": 0.2325,
    "ResNet-18": 0.1820,
}

# Figure 1(b) -- unfairness of MnasNet 0.5 trained with 5x minority data is
# still higher than ResNet-18 without balancing.
FIGURE1B: Dict[str, float] = {
    "MnasNet 0.5 @5x minority": 0.2280,
    "ResNet-18": 0.1820,
}

# Table 2 -- search space, valid ratio, search time.
TABLE2: Dict[str, Dict[str, float]] = {
    "MONAS": {
        "space_size": 1e19,
        "valid_ratio_tight": 0.2750, "hours_tight": 104.75, "speedup_tight": 1.0,
        "valid_ratio_relaxed": 0.3333, "hours_relaxed": 177.25, "speedup_relaxed": 1.0,
    },
    "FaHaNa": {
        "space_size": 1e9,
        "valid_ratio_tight": 0.7105, "hours_tight": 57.17, "speedup_tight": 1.83,
        "valid_ratio_relaxed": 0.9523, "hours_relaxed": 66.33, "speedup_relaxed": 2.67,
    },
}

# Table 4 -- effect of 5x minority data balancing.
TABLE4: Dict[str, Dict[str, float]] = {
    "MobileNetV2": {
        "accuracy": 0.8105, "unfairness": 0.2325,
        "accuracy_balanced": 0.8214, "unfairness_balanced": 0.1528,
    },
    "ProxylessNAS(M)": {
        "accuracy": 0.8127, "unfairness": 0.3094,
        "accuracy_balanced": 0.8153, "unfairness_balanced": 0.1467,
    },
    "MnasNet 0.5": {
        "accuracy": 0.7812, "unfairness": 0.4521,
        "accuracy_balanced": 0.7882, "unfairness_balanced": 0.1824,
    },
    "MobileNetV3(S)": {
        "accuracy": 0.8038, "unfairness": 0.3253,
        "accuracy_balanced": 0.8055, "unfairness_balanced": 0.1923,
    },
    "MnasNet 1.0": {
        "accuracy": 0.8071, "unfairness": 0.2913,
        "accuracy_balanced": 0.8020, "unfairness_balanced": 0.1585,
    },
    "FaHaNa-Small": {
        "accuracy": 0.8128, "unfairness": 0.1973,
        "accuracy_balanced": 0.8202, "unfairness_balanced": 0.1365,
    },
}

# Headline claims of the abstract / Section 4.
HEADLINE: Dict[str, float] = {
    "fahana_small_vs_mobilenetv2_storage_reduction": 5.28,
    "fahana_small_vs_mobilenetv2_pi_speedup": 5.75,
    "fahana_small_vs_mobilenetv2_odroid_speedup": 5.79,
    "fahana_small_vs_mobilenetv2_fairness_improvement": 0.1514,
    "fahana_vs_mnasnet_unfairness_reduction_from": 0.4521,
    "fahana_vs_mnasnet_unfairness_reduction_to": 0.1973,
    "freezing_search_speedup_relaxed": 2.67,
    "freezing_space_reduction_from": 1e19,
    "freezing_space_reduction_to": 1e9,
}
