"""Reference outputs recorded at the default seed on the commit that added
this benchmark. AC pins are the acceptance gate's own values; the digests
and the m=10 warped sup were recorded from the untraced workloads."""

WARP = {
    "warp-m12-open": {
        "window_sha256": "9fa8f1a6899dedeee9c6daebca3d6cbeebf5054dc65ea36edb32f79bc1a16ab6",
        "records_sha256": "2586d34283ce4966d3fb62023cfeed9e00a7573538c14f3f4d5927b8ecb0b35c",
    },
    "warp-m10": {
        # bitwise the homeomorphism of the m=12 kk_example acceptance run
        "homeo_sha256": "c8e4ceaa1a8004bb1e0c79498d3505536941449fb06839c6301e5e6c9abdcb0a",
        "warped_sup": 1.0447824008203843,
    },
}

LAB = {
    # AC-1: seed 0 equals the gate's best of five, the seed being inert at block 8
    "disc.n64": 0.3858354347180841,
    "disc.n512": 0.38628679103987396,
    "disc.n4096": 0.38629424202694673,
    "iid_medians": [2.677612837223631, 3.6142723945955906, 4.2395635128416025],
    "base_sup.perturbed_square": 1.7979887146916371,
    "base_sup.kk_example": 1.0607454994018302,
    "anorm_first": 2.007597,
    "anorm_last": 3.108677,
    "anorm_taper_ratio": 1.54076448235035,
    "kernel_c": 0.9080775283146177,
    "ac_worst": 1.0724748499939594,
    "ks": 0.009047917192114507,
    "kernel-decay.tables": {
        "kernel_decay_n8.csv": "7aab0d3b8159e94ffd9a2aaf6915376b42c0ddb235162cdc4ef190eec55c373e",
        "kernel_decay_n16.csv": "8cf2a43173f78f45cf75e8ccc50a80c1ee74ebd9a177c503b83e45af20906eaa",
        "kernel_decay_n64.csv": "11f3dd4379dfffa7d1a15b79b3855746dfb70064c635da0cd3606c7b7d185cdd",
        "kernel_decay_n256.csv": "b05a79e990233bb006c1454b4e20575473a69de6b0b8fd71017c5af0a0f1893a",
        "kernel_decay_summary.csv": "e9f5d1d046fe6e7cc867f1eafd1a99ad4612f42eca0ae6dccb0800bf6898b393",
    },
    "df-stats.tables": {
        "df_stats.csv": "5881b6bc6180842b1ed9b40918e4cd34d39e7b2aca6262c8344f2949a05fe5e8",
    },
}
